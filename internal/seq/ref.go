// Package seq implements the paper's sequential MTTKRP algorithms:
// the unblocked Algorithm 1, the communication-optimal blocked
// Algorithm 2, the MTTKRP-via-matrix-multiplication baseline of
// Section III-B / VI-A, and the Definition 2.1 reference kernel (Ref)
// that every engine is checked against. The instrumented variants run
// against a memsim.Machine and account for every load and store in the
// two-level memory model, so their measured communication can be
// compared directly with the lower bounds of Section IV.
package seq

import (
	"fmt"

	"repro/internal/tensor"
)

// checkArgs validates a (tensor, factors, mode) triple and returns
// (N, R). factors must have one entry per mode; factors[n] may be nil.
func checkArgs(x *tensor.Dense, factors []*tensor.Matrix, n int) (int, int) {
	N := x.Order()
	if len(factors) != N {
		panic(fmt.Sprintf("seq: %d factors for order-%d tensor", len(factors), N))
	}
	if n < 0 || n >= N {
		panic(fmt.Sprintf("seq: mode %d out of range [0,%d)", n, N))
	}
	R := -1
	for k, f := range factors {
		if k == n {
			continue
		}
		if f == nil {
			panic(fmt.Sprintf("seq: factor %d is nil", k))
		}
		if f.Rows() != x.Dim(k) {
			panic(fmt.Sprintf("seq: factor %d has %d rows, tensor dim is %d", k, f.Rows(), x.Dim(k)))
		}
		if R == -1 {
			R = f.Cols()
		} else if f.Cols() != R {
			panic(fmt.Sprintf("seq: factor %d has %d cols, want %d", k, f.Cols(), R))
		}
	}
	if R == -1 {
		panic("seq: MTTKRP needs at least two modes")
	}
	return N, R
}

// Ref computes the MTTKRP B(n) = X_(n) * KRP directly from Definition
// 2.1, evaluating each N-ary multiply atomically. It performs no
// communication accounting and serves as the correctness reference and
// as the local kernel of the parallel algorithms.
func Ref(x *tensor.Dense, factors []*tensor.Matrix, n int) *tensor.Matrix {
	b := tensor.NewMatrix(x.Dim(n), factorCols(factors, n))
	AccumulateRef(b, x, factors, n)
	return b
}

func factorCols(factors []*tensor.Matrix, n int) int {
	for k, f := range factors {
		if k != n && f != nil {
			return f.Cols()
		}
	}
	panic("seq: no participating factor")
}

// AccumulateRef adds the MTTKRP contribution of x into b, which must be
// x.Dim(n) x R. Splitting allocation from accumulation lets parallel
// ranks accumulate local contributions into a shared-shape buffer.
//
// The factor and output columns are hoisted into a cached slice table
// before the element loop, so the N-ary inner products index plain
// []float64 slices instead of going through At/AddAt bounds-and-offset
// arithmetic. The multiplication order of Definition 2.1's atomic
// product is unchanged, so results are bitwise identical to the
// uncached kernel.
func AccumulateRef(b *tensor.Matrix, x *tensor.Dense, factors []*tensor.Matrix, n int) {
	N, R := checkArgs(x, factors, n)
	if b.Rows() != x.Dim(n) || b.Cols() != R {
		panic(fmt.Sprintf("seq: output is %dx%d, want %dx%d", b.Rows(), b.Cols(), x.Dim(n), R))
	}
	dims := x.Dims()
	idx := make([]int, N)
	data := x.Data()
	fcols, bcols := cacheCols(b, factors, n, R)
	for off := 0; off < len(data); off++ {
		v := data[off]
		// Atomic N-ary multiplies: the (N-1)-way factor product is
		// formed per (i, r) with no reuse across iterations.
		in := idx[n]
		for r := 0; r < R; r++ {
			p := 1.0
			for k := 0; k < N; k++ {
				if k == n {
					continue
				}
				p *= fcols[k*R+r][idx[k]]
			}
			bcols[r][in] += v * p
		}
		incIndex(idx, dims)
	}
}

// cacheCols builds the flat column-slice tables used by the reference
// kernels: fcols[k*R+r] is column r of factors[k] (nil for mode n) and
// bcols[r] is column r of the output.
func cacheCols(b *tensor.Matrix, factors []*tensor.Matrix, n, R int) (fcols, bcols [][]float64) {
	N := len(factors)
	fcols = make([][]float64, N*R)
	for k, f := range factors {
		if k == n {
			continue
		}
		for r := 0; r < R; r++ {
			fcols[k*R+r] = f.Col(r)
		}
	}
	bcols = make([][]float64, R)
	for r := 0; r < R; r++ {
		bcols[r] = b.Col(r)
	}
	return fcols, bcols
}

// RefFlops returns the arithmetic operation count of the atomic
// reference kernel: each of the I*R loop iterations performs an N-ary
// multiply (N-1 multiplications) plus one more multiplication by the
// tensor entry and one addition.
func RefFlops(x *tensor.Dense, R int) int64 {
	N := int64(x.Order())
	return int64(x.Elems()) * int64(R) * (N + 1)
}

// incIndex advances a column-major multi-index (duplicated from tensor
// to keep the hot loop free of cross-package calls).
func incIndex(idx, dims []int) {
	for k := range idx {
		idx[k]++
		if idx[k] < dims[k] {
			return
		}
		idx[k] = 0
	}
}
