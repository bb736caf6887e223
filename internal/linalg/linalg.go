// Package linalg provides the small dense linear-algebra kernels the
// MTTKRP baselines and CP-ALS need: matrix multiplication, Gram
// matrices, and symmetric positive-definite solves via Cholesky.
//
// Everything operates on tensor.Matrix (column-major). These kernels
// are substrates, not the paper's contribution: the via-matmul MTTKRP
// baseline multiplies the unfolded tensor by an explicit Khatri-Rao
// product, and CP-ALS solves R x R normal equations each sweep.
package linalg

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/tensor"
)

// MatMul returns C = A * B.
func MatMul(a, b *tensor.Matrix) *tensor.Matrix {
	if a.Cols() != b.Rows() {
		panic(fmt.Sprintf("linalg: matmul inner dims %d vs %d", a.Cols(), b.Rows()))
	}
	c := tensor.NewMatrix(a.Rows(), b.Cols())
	MatMulInto(c, a, b)
	return c
}

// MatMulInto computes C = A * B into an existing matrix using the
// blocked parallel engine with the package-default worker count.
func MatMulInto(c, a, b *tensor.Matrix) {
	if a.Cols() != b.Rows() || c.Rows() != a.Rows() || c.Cols() != b.Cols() {
		panic(fmt.Sprintf("linalg: matmul shapes %dx%d * %dx%d -> %dx%d",
			a.Rows(), a.Cols(), b.Rows(), b.Cols(), c.Rows(), c.Cols()))
	}
	GemmNN(c.Data(), a.Data(), b.Data(), a.Rows(), a.Cols(), b.Cols(), 0)
}

// MatMulTransA returns C = A^T * B.
func MatMulTransA(a, b *tensor.Matrix) *tensor.Matrix {
	c := tensor.NewMatrix(a.Cols(), b.Cols())
	MatMulTransAInto(c, a, b)
	return c
}

// MatMulTransAInto computes C = A^T * B into an existing matrix.
func MatMulTransAInto(c, a, b *tensor.Matrix) {
	if a.Rows() != b.Rows() || c.Rows() != a.Cols() || c.Cols() != b.Cols() {
		panic(fmt.Sprintf("linalg: matmulTransA shapes (%dx%d)^T * %dx%d -> %dx%d",
			a.Rows(), a.Cols(), b.Rows(), b.Cols(), c.Rows(), c.Cols()))
	}
	GemmTN(c.Data(), a.Data(), b.Data(), a.Rows(), a.Cols(), b.Cols(), 0)
}

// MatMulTransB returns C = A * B^T.
func MatMulTransB(a, b *tensor.Matrix) *tensor.Matrix {
	c := tensor.NewMatrix(a.Rows(), b.Rows())
	MatMulTransBInto(c, a, b)
	return c
}

// MatMulTransBInto computes C = A * B^T into an existing matrix.
func MatMulTransBInto(c, a, b *tensor.Matrix) {
	if a.Cols() != b.Cols() || c.Rows() != a.Rows() || c.Cols() != b.Rows() {
		panic(fmt.Sprintf("linalg: matmulTransB shapes %dx%d * (%dx%d)^T -> %dx%d",
			a.Rows(), a.Cols(), b.Rows(), b.Cols(), c.Rows(), c.Cols()))
	}
	GemmNT(c.Data(), a.Data(), b.Data(), a.Rows(), a.Cols(), b.Rows(), 0)
}

// Gram returns A^T * A (R x R symmetric positive semidefinite).
func Gram(a *tensor.Matrix) *tensor.Matrix {
	return MatMulTransA(a, a)
}

// Identity returns the n x n identity matrix.
func Identity(n int) *tensor.Matrix {
	m := tensor.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// ErrNotSPD is returned when a Cholesky factorization encounters a
// non-positive pivot.
var ErrNotSPD = errors.New("linalg: matrix is not positive definite")

// Cholesky computes the lower-triangular L with A = L * L^T. A must be
// symmetric positive definite; only the lower triangle of A is read.
func Cholesky(a *tensor.Matrix) (*tensor.Matrix, error) {
	n := a.Rows()
	if a.Cols() != n {
		panic(fmt.Sprintf("linalg: cholesky of non-square %dx%d", n, a.Cols()))
	}
	l := tensor.NewMatrix(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			d -= l.At(j, k) * l.At(j, k)
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("%w (pivot %d: %v)", ErrNotSPD, j, d)
		}
		ljj := math.Sqrt(d)
		l.Set(j, j, ljj)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/ljj)
		}
	}
	return l, nil
}

// SolveSPD solves A * X = B for X where A is symmetric positive
// definite, via Cholesky. B may have multiple right-hand-side columns.
// If A is singular to working precision, a small ridge is added and the
// solve retried (see choleskyRidge).
func SolveSPD(a, b *tensor.Matrix) (*tensor.Matrix, error) {
	n := a.Rows()
	if a.Cols() != n || b.Rows() != n {
		panic(fmt.Sprintf("linalg: solveSPD shapes %dx%d, rhs %dx%d", a.Rows(), a.Cols(), b.Rows(), b.Cols()))
	}
	l, err := choleskyRidge(a)
	if err != nil {
		return nil, err
	}
	return solveWithCholesky(l, b), nil
}

// SolveSPDRight solves X * V = B for X in place, where V is n x n
// symmetric positive definite and B is m x n: on return B holds
// B V^{-1}. It is the CP-ALS normal-equations solve A = B V^{-1}
// without SolveSPD's two transposes and clone. The forward and back
// substitutions run as column updates over B's storage, in the same
// per-element operation order SolveSPD applies to each right-hand
// side, so B is bitwise SolveSPD(V, B^T)^T — ridge retries included.
func SolveSPDRight(v, b *tensor.Matrix) error {
	n := v.Rows()
	if v.Cols() != n || b.Cols() != n {
		panic(fmt.Sprintf("linalg: solveSPDRight shapes %dx%d, lhs %dx%d", v.Rows(), v.Cols(), b.Rows(), b.Cols()))
	}
	l, err := choleskyRidge(v)
	if err != nil {
		return err
	}
	m := b.Rows()
	ld, bd := l.Data(), b.Data()
	// Forward substitution Y L^T = B, one column of Y per step.
	for i := 0; i < n; i++ {
		ci := bd[i*m : i*m+m]
		for k := 0; k < i; k++ {
			lik := ld[i+k*n]
			ck := bd[k*m : k*m+m]
			for r := range ci {
				ci[r] -= lik * ck[r]
			}
		}
		lii := ld[i+i*n]
		for r := range ci {
			ci[r] /= lii
		}
	}
	// Back substitution X L = Y.
	for i := n - 1; i >= 0; i-- {
		ci := bd[i*m : i*m+m]
		for k := i + 1; k < n; k++ {
			lki := ld[k+i*n]
			ck := bd[k*m : k*m+m]
			for r := range ci {
				ci[r] -= lki * ck[r]
			}
		}
		lii := ld[i+i*n]
		for r := range ci {
			ci[r] /= lii
		}
	}
	return nil
}

// choleskyRidge returns the Cholesky factor of A, or of A plus a small
// ridge on the diagonal when A is singular to working precision: the
// ridge starts at 1e-12 times A's largest diagonal magnitude and grows
// tenfold per retry, giving up after 20 retries. It is the one retry
// policy behind SolveSPD and SolveSPDRight.
func choleskyRidge(a *tensor.Matrix) (*tensor.Matrix, error) {
	n := a.Rows()
	work := a
	ridge := 0.0
	for attempt := 0; ; attempt++ {
		l, err := Cholesky(work)
		if err == nil {
			return l, nil
		}
		if attempt >= 20 {
			return nil, err
		}
		if ridge == 0 { //repro:bitwise unset-ridge sentinel, exact
			// Scale the initial ridge to the matrix magnitude.
			maxDiag := 0.0
			for i := 0; i < n; i++ {
				if d := math.Abs(a.At(i, i)); d > maxDiag {
					maxDiag = d
				}
			}
			if maxDiag == 0 { //repro:bitwise exact-zero guard before scaling
				maxDiag = 1
			}
			ridge = 1e-12 * maxDiag
		} else {
			ridge *= 10
		}
		work = a.Clone()
		for i := 0; i < n; i++ {
			work.AddAt(i, i, ridge)
		}
	}
}

func solveWithCholesky(l, b *tensor.Matrix) *tensor.Matrix {
	n := l.Rows()
	x := b.Clone()
	for j := 0; j < x.Cols(); j++ {
		col := x.Col(j)
		// Forward substitution L y = b.
		for i := 0; i < n; i++ {
			s := col[i]
			for k := 0; k < i; k++ {
				s -= l.At(i, k) * col[k]
			}
			col[i] = s / l.At(i, i)
		}
		// Back substitution L^T x = y.
		for i := n - 1; i >= 0; i-- {
			s := col[i]
			for k := i + 1; k < n; k++ {
				s -= l.At(k, i) * col[k]
			}
			col[i] = s / l.At(i, i)
		}
	}
	return x
}

// Transpose returns A^T.
func Transpose(a *tensor.Matrix) *tensor.Matrix {
	t := tensor.NewMatrix(a.Cols(), a.Rows())
	TransposeInto(t, a)
	return t
}

// TransposeInto writes A^T into t (a.Cols() x a.Rows()), allocating
// nothing — the hoisted form for loops that transpose into a reused
// buffer.
func TransposeInto(t, a *tensor.Matrix) {
	if t.Rows() != a.Cols() || t.Cols() != a.Rows() {
		panic(fmt.Sprintf("linalg: transpose into %dx%d of %dx%d", t.Rows(), t.Cols(), a.Rows(), a.Cols()))
	}
	for j := 0; j < a.Cols(); j++ {
		aj := a.Col(j)
		for i := range aj {
			t.Set(j, i, aj[i])
		}
	}
}

// Dot returns the Frobenius inner product <A, B> = sum_ij A_ij B_ij.
func Dot(a, b *tensor.Matrix) float64 {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		panic(fmt.Sprintf("linalg: dot shape mismatch %dx%d vs %dx%d", a.Rows(), a.Cols(), b.Rows(), b.Cols()))
	}
	var s float64
	ad, bd := a.Data(), b.Data()
	for i := range ad {
		s += ad[i] * bd[i]
	}
	return s
}

// SumAll returns the sum of all entries of A.
func SumAll(a *tensor.Matrix) float64 {
	var s float64
	for _, v := range a.Data() {
		s += v
	}
	return s
}

// ColumnNormalize scales each column of A to unit 2-norm and returns
// the original norms. Zero columns are left untouched with norm 0.
func ColumnNormalize(a *tensor.Matrix) []float64 {
	norms := make([]float64, a.Cols())
	for j := 0; j < a.Cols(); j++ {
		col := a.Col(j)
		var s float64
		for _, v := range col {
			s += v * v
		}
		nrm := math.Sqrt(s)
		norms[j] = nrm
		if nrm > 0 {
			inv := 1 / nrm
			for i := range col {
				col[i] *= inv
			}
		}
	}
	return norms
}
