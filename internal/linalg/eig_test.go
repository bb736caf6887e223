package linalg

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestSymEig2x2Hand(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	a := tensor.NewMatrixFromData([]float64{2, 1, 1, 2}, 2, 2)
	vals, vecs, err := SymEig(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-3) > 1e-10 || math.Abs(vals[1]-1) > 1e-10 {
		t.Fatalf("vals = %v, want [3 1]", vals)
	}
	// Eigenvector for 3 is (1,1)/sqrt(2) up to sign.
	v0 := vecs.Col(0)
	if math.Abs(math.Abs(v0[0])-1/math.Sqrt2) > 1e-10 || math.Abs(v0[0]-v0[1]) > 1e-10 {
		t.Fatalf("vec0 = %v", v0)
	}
}

func TestSymEigReconstructs(t *testing.T) {
	a := tensor.RandomMatrix(3, 6, 6)
	sym := Gram(a)
	vals, vecs, err := SymEig(sym)
	if err != nil {
		t.Fatal(err)
	}
	// V diag V^T == sym.
	n := 6
	rec := tensor.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += vecs.At(i, k) * vals[k] * vecs.At(j, k)
			}
			rec.Set(i, j, s)
		}
	}
	if !rec.EqualApprox(sym, 1e-8) {
		t.Fatalf("reconstruction error %v", rec.MaxAbsDiff(sym))
	}
	// Descending order.
	for k := 1; k < n; k++ {
		if vals[k] > vals[k-1]+1e-12 {
			t.Fatalf("eigenvalues not sorted: %v", vals)
		}
	}
	// Orthonormal columns.
	vtv := Gram(vecs)
	if !vtv.EqualApprox(Identity(n), 1e-9) {
		t.Fatal("eigenvectors not orthonormal")
	}
}

func TestSymEigRejectsAsymmetric(t *testing.T) {
	a := tensor.NewMatrixFromData([]float64{1, 5, 2, 1}, 2, 2)
	if _, _, err := SymEig(a); err == nil {
		t.Fatal("asymmetric input should error")
	}
}

func TestSymEigRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, at := range [][2]int{{0, 0}, {2, 2}, {1, 2}} {
			a := Gram(tensor.RandomMatrix(5, 4, 3))
			a.Set(at[0], at[1], bad)
			a.Set(at[1], at[0], bad)
			if _, _, err := SymEig(a); err == nil {
				t.Errorf("SymEig accepted %v at %v", bad, at)
			}
		}
	}
	// Finite entries whose row sums overflow in the reduction.
	huge := tensor.NewMatrix(3, 3)
	huge.Fill(math.MaxFloat64 / 2)
	if vals, _, err := SymEig(huge); err == nil {
		t.Errorf("SymEig returned %v for entries near overflow, want an error", vals)
	}
}

func TestSymEigPanicsNonSquare(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_, _, _ = SymEig(tensor.NewMatrix(2, 3))
}

func TestLeadingEigvecs(t *testing.T) {
	a := tensor.RandomMatrix(7, 5, 5)
	sym := Gram(a)
	lead, err := LeadingEigvecs(sym, 2)
	if err != nil {
		t.Fatal(err)
	}
	if lead.Rows() != 5 || lead.Cols() != 2 {
		t.Fatalf("shape %dx%d", lead.Rows(), lead.Cols())
	}
	// Columns orthonormal.
	g := Gram(lead)
	if !g.EqualApprox(Identity(2), 1e-9) {
		t.Fatal("leading eigenvectors not orthonormal")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for r out of range")
		}
	}()
	_, _ = LeadingEigvecs(sym, 6)
}

func TestQRBasics(t *testing.T) {
	a := tensor.RandomMatrix(11, 7, 4)
	q, r, err := QR(a)
	if err != nil {
		t.Fatal(err)
	}
	if !Gram(q).EqualApprox(Identity(4), 1e-9) {
		t.Fatal("Q columns not orthonormal")
	}
	if !MatMul(q, r).EqualApprox(a, 1e-9) {
		t.Fatal("QR != A")
	}
	// R upper triangular with positive diagonal.
	for i := 0; i < 4; i++ {
		if r.At(i, i) <= 0 {
			t.Fatal("R diagonal not positive")
		}
		for j := 0; j < i; j++ {
			if r.At(i, j) != 0 {
				t.Fatal("R not upper triangular")
			}
		}
	}
}

func TestQRRankDeficient(t *testing.T) {
	a := tensor.NewMatrix(4, 2)
	// Second column = 2x first.
	for i := 0; i < 4; i++ {
		a.Set(i, 0, float64(i+1))
		a.Set(i, 1, 2*float64(i+1))
	}
	if _, _, err := QR(a); err == nil {
		t.Fatal("rank deficiency should error")
	}
}

func TestQRPanicsWide(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_, _, _ = QR(tensor.NewMatrix(2, 3))
}

// Property: eigenvalues of a Gram matrix are nonnegative and sum to
// its trace.
func TestSymEigGramPropertiesQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(4)
		n := 2 + rng.Intn(4)
		g := Gram(tensor.RandomMatrix(seed, m, n))
		vals, _, err := SymEig(g)
		if err != nil {
			return false
		}
		var sum, trace float64
		for i, v := range vals {
			if v < -1e-9 {
				return false
			}
			sum += v
			trace += g.At(i, i)
		}
		return math.Abs(sum-trace) < 1e-8*(1+trace)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// FuzzSymEig checks SymEig on symmetric matrices with known spectra:
// dense A = Q diag(lambda) Q^T (Q from linalg.QR of a seeded random
// matrix, applied twice so Q is orthogonal to working precision),
// diag(lambda), and the shifted, scaled Clement tridiagonal (diagonal
// c, off-diagonal s*sqrt(k(n-k))), whose eigenvalues are
// c + s*(2k - n + 1) for k = 0..n-1. The spectrum kinds cover distinct,
// repeated, zero, negative and graded (1e-8 to 1e8) eigenvalues; n
// ranges over [1, 48].
func FuzzSymEig(f *testing.F) {
	for _, c := range []struct {
		seed               int64
		n, spectrum, shape uint8
	}{
		{1, 0, 0, 0}, {2, 47, 0, 0}, {3, 31, 1, 0}, {4, 31, 2, 0}, {5, 31, 3, 0},
		{6, 31, 4, 0}, {7, 15, 0, 1}, {8, 15, 1, 1}, {9, 15, 4, 1}, {10, 31, 0, 2},
		{11, 1, 2, 2}, {12, 47, 4, 0}, {13, 7, 2, 1}, {14, 2, 1, 0},
	} {
		f.Add(c.seed, c.n, c.spectrum, c.shape)
	}
	f.Fuzz(func(t *testing.T, seed int64, nb, spectrum, shape uint8) {
		n := 1 + int(nb)%48
		a, want := knownSpectrum(t, seed, n, spectrum, shape)
		checkSymEig(t, a, want)
	})
}

// knownSpectrum builds an exactly symmetric n x n matrix and its
// eigenvalues.
func knownSpectrum(t *testing.T, seed int64, n int, spectrum, shape uint8) (*tensor.Matrix, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	a := tensor.NewMatrix(n, n)
	lam := make([]float64, n)
	if shape%3 == 2 {
		c, s := 4*rng.Float64()-2, (0.5+rng.Float64())*float64(1-2*rng.Intn(2))
		for i := 0; i < n; i++ {
			a.Set(i, i, c)
			if i > 0 {
				b := s * math.Sqrt(float64(i*(n-i)))
				a.Set(i, i-1, b)
				a.Set(i-1, i, b)
			}
			lam[i] = c + s*float64(2*i-n+1)
		}
		return a, lam
	}
	distinct := []float64{rng.Float64(), -rng.Float64(), 0}
	for i := range lam {
		switch spectrum % 5 {
		case 0: // distinct, either sign
			lam[i] = 2*rng.Float64() - 1
		case 1: // a few values, each repeated
			lam[i] = distinct[rng.Intn(len(distinct))]
		case 2: // about half exactly zero
			if rng.Intn(2) == 0 {
				lam[i] = 2*rng.Float64() - 1
			}
		case 3: // all negative
			lam[i] = -0.1 - 10*rng.Float64()
		case 4: // graded magnitudes, either sign
			lam[i] = math.Pow(10, -8+16*rng.Float64()) * float64(1-2*rng.Intn(2))
		}
	}
	if shape%3 == 1 {
		for i, l := range lam {
			a.Set(i, i, l)
		}
		return a, lam
	}
	q, _, err := QR(tensor.RandomMatrix(seed, n, n))
	if err == nil {
		q, _, err = QR(q)
	}
	if err != nil {
		t.Fatalf("orthonormal basis: %v", err)
	}
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			var s float64
			for k, l := range lam {
				s += q.At(i, k) * l * q.At(j, k)
			}
			a.Set(i, j, s)
			a.Set(j, i, s)
		}
	}
	return a, lam
}

// checkSymEig asserts SymEig's contract on a: eigenvalues equal to
// want, descending; A = V diag(vals) V^T and V^T V = I to within
// c*n*eps (relative to ||A||_F for A); and a left untouched.
func checkSymEig(t *testing.T, a *tensor.Matrix, want []float64) {
	t.Helper()
	n := a.Rows()
	orig := append([]float64(nil), a.Data()...)
	vals, vecs, err := SymEig(a)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range a.Data() {
		if x != orig[i] {
			t.Fatalf("SymEig modified its input at %d: %v -> %v", i, orig[i], x)
		}
	}
	tol := 32 * float64(n) * 0x1p-52
	normA := a.Norm()
	want = append([]float64(nil), want...)
	sort.Sort(sort.Reverse(sort.Float64Slice(want)))
	for i, v := range vals {
		if i > 0 && v > vals[i-1] {
			t.Fatalf("eigenvalues not descending at %d: %v", i, vals)
		}
		if math.Abs(v-want[i]) > tol*normA {
			t.Fatalf("eigenvalue %d = %v, want %v (||A|| = %v)", i, v, want[i], normA)
		}
	}
	var rec, orth float64
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			var r, o float64
			for k := 0; k < n; k++ {
				r += vecs.At(i, k) * vals[k] * vecs.At(j, k)
				o += vecs.At(k, i) * vecs.At(k, j)
			}
			if i == j {
				o--
			}
			rec += (a.At(i, j) - r) * (a.At(i, j) - r)
			orth += o * o
		}
	}
	if math.Sqrt(rec) > tol*normA {
		t.Fatalf("||A - V diag V^T|| = %v > %v", math.Sqrt(rec), tol*normA)
	}
	if math.Sqrt(orth) > tol {
		t.Fatalf("||V^T V - I|| = %v > %v", math.Sqrt(orth), tol)
	}
}
