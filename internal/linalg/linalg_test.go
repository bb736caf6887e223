package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func naiveMul(a, b *tensor.Matrix) *tensor.Matrix {
	c := tensor.NewMatrix(a.Rows(), b.Cols())
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < b.Cols(); j++ {
			var s float64
			for k := 0; k < a.Cols(); k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

func TestMatMulHand(t *testing.T) {
	a := tensor.NewMatrixFromData([]float64{1, 3, 2, 4}, 2, 2) // [[1,2],[3,4]]
	b := tensor.NewMatrixFromData([]float64{5, 7, 6, 8}, 2, 2) // [[5,6],[7,8]]
	c := MatMul(a, b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("C(%d,%d) = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMatMulMatchesNaiveQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a := tensor.RandomMatrix(seed, m, k)
		b := tensor.RandomMatrix(seed+1, k, n)
		return MatMul(a, b).EqualApprox(naiveMul(a, b), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulTransA(t *testing.T) {
	a := tensor.RandomMatrix(1, 5, 3)
	b := tensor.RandomMatrix(2, 5, 4)
	got := MatMulTransA(a, b)
	want := naiveMul(Transpose(a), b)
	if !got.EqualApprox(want, 1e-12) {
		t.Fatal("MatMulTransA mismatch")
	}
}

func TestMatMulTransB(t *testing.T) {
	a := tensor.RandomMatrix(1, 4, 3)
	b := tensor.RandomMatrix(2, 5, 3)
	got := MatMulTransB(a, b)
	want := naiveMul(a, Transpose(b))
	if !got.EqualApprox(want, 1e-12) {
		t.Fatal("MatMulTransB mismatch")
	}
}

func TestMatMulShapePanics(t *testing.T) {
	for _, f := range []func(){
		func() { MatMul(tensor.NewMatrix(2, 3), tensor.NewMatrix(2, 3)) },
		func() { MatMulTransA(tensor.NewMatrix(2, 3), tensor.NewMatrix(3, 3)) },
		func() { MatMulTransB(tensor.NewMatrix(2, 3), tensor.NewMatrix(3, 2)) },
		func() { MatMulInto(tensor.NewMatrix(2, 2), tensor.NewMatrix(2, 3), tensor.NewMatrix(3, 3)) },
		func() { _, _ = Cholesky(tensor.NewMatrix(2, 3)) },
		func() { Dot(tensor.NewMatrix(2, 2), tensor.NewMatrix(2, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestGramSymmetricPSD(t *testing.T) {
	a := tensor.RandomMatrix(3, 10, 4)
	g := Gram(a)
	for i := 0; i < 4; i++ {
		if g.At(i, i) < 0 {
			t.Fatalf("Gram diagonal %d negative", i)
		}
		for j := 0; j < 4; j++ {
			if math.Abs(g.At(i, j)-g.At(j, i)) > 1e-12 {
				t.Fatalf("Gram not symmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestCholeskyReconstructs(t *testing.T) {
	a := tensor.RandomMatrix(5, 8, 4)
	g := Gram(a)
	// Make it strictly PD.
	for i := 0; i < 4; i++ {
		g.AddAt(i, i, 0.5)
	}
	l, err := Cholesky(g)
	if err != nil {
		t.Fatal(err)
	}
	// Check L is lower triangular and L L^T = G.
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if l.At(i, j) != 0 {
				t.Fatalf("L(%d,%d) = %v, want 0", i, j, l.At(i, j))
			}
		}
	}
	llt := MatMulTransB(l, l)
	if !llt.EqualApprox(g, 1e-10) {
		t.Fatal("L L^T != G")
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := Identity(3)
	a.Set(2, 2, -1)
	if _, err := Cholesky(a); err == nil {
		t.Fatal("expected ErrNotSPD")
	}
}

func TestSolveSPDExact(t *testing.T) {
	a := tensor.RandomMatrix(9, 6, 6)
	g := Gram(a)
	for i := 0; i < 6; i++ {
		g.AddAt(i, i, 1)
	}
	xTrue := tensor.RandomMatrix(10, 6, 3)
	b := MatMul(g, xTrue)
	x, err := SolveSPD(g, b)
	if err != nil {
		t.Fatal(err)
	}
	if !x.EqualApprox(xTrue, 1e-8) {
		t.Fatalf("SolveSPD residual %v", x.MaxAbsDiff(xTrue))
	}
}

func TestSolveSPDSingularUsesRidge(t *testing.T) {
	// Rank-deficient Gram (more columns than rows).
	a := tensor.RandomMatrix(11, 2, 4)
	g := Gram(a) // 4x4, rank <= 2
	b := tensor.RandomMatrix(12, 4, 1)
	x, err := SolveSPD(g, b)
	if err != nil {
		t.Fatalf("ridge fallback failed: %v", err)
	}
	// Residual of the regularized solve should be finite.
	r := MatMul(g, x)
	r.Add(-1, b)
	if math.IsNaN(r.Norm()) || math.IsInf(r.Norm(), 0) {
		t.Fatal("non-finite solution")
	}
}

// TestSolveSPDRightBitwise pins SolveSPDRight to the transposing solve
// it replaces in CP-ALS: X = SolveSPD(V, B^T)^T, bit for bit, on random
// SPD systems of the solver's shapes and on a rank-deficient V that
// takes the ridge retry.
func TestSolveSPDRightBitwise(t *testing.T) {
	check := func(t *testing.T, name string, v, b *tensor.Matrix) {
		t.Helper()
		xt, err := SolveSPD(v, Transpose(b))
		if err != nil {
			t.Fatalf("%s: SolveSPD: %v", name, err)
		}
		want := Transpose(xt)
		got := b.Clone()
		if err := SolveSPDRight(v, got); err != nil {
			t.Fatalf("%s: SolveSPDRight: %v", name, err)
		}
		for i, w := range want.Data() {
			if got.Data()[i] != w { //repro:bitwise the in-place solve keeps the transposing solve's operation order
				t.Fatalf("%s: element %d = %g, transposing solve %g", name, i, got.Data()[i], w)
			}
		}
	}
	for si, s := range []struct{ rows, n int }{{1, 1}, {5, 3}, {128, 16}, {37, 8}, {3, 20}} {
		v := Gram(tensor.RandomMatrix(int64(60+si), s.n+7, s.n))
		for i := 0; i < s.n; i++ {
			v.AddAt(i, i, 0.5)
		}
		check(t, fmt.Sprintf("%dx%d", s.rows, s.n), v, tensor.RandomMatrix(int64(70+si), s.rows, s.n))
	}
	// Rank <= 2 Gram of order 4: Cholesky fails until the ridge lands.
	g := Gram(tensor.RandomMatrix(11, 2, 4))
	if _, err := Cholesky(g); err == nil {
		t.Fatal("rank-deficient Gram factored without a ridge")
	}
	check(t, "singular", g, tensor.RandomMatrix(12, 9, 4))
}

func TestTransposeInvolution(t *testing.T) {
	a := tensor.RandomMatrix(4, 3, 5)
	if !Transpose(Transpose(a)).EqualApprox(a, 0) {
		t.Fatal("transpose twice != identity")
	}
	at := Transpose(a)
	for i := 0; i < 3; i++ {
		for j := 0; j < 5; j++ {
			if a.At(i, j) != at.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestDotAndSumAll(t *testing.T) {
	a := tensor.NewMatrixFromData([]float64{1, 2, 3, 4}, 2, 2)
	if got := Dot(a, a); got != 30 {
		t.Fatalf("Dot = %v, want 30", got)
	}
	if got := SumAll(a); got != 10 {
		t.Fatalf("SumAll = %v, want 10", got)
	}
}

func TestColumnNormalize(t *testing.T) {
	a := tensor.NewMatrixFromData([]float64{3, 4, 0, 0}, 2, 2)
	norms := ColumnNormalize(a)
	if math.Abs(norms[0]-5) > 1e-12 {
		t.Fatalf("norm[0] = %v, want 5", norms[0])
	}
	if norms[1] != 0 {
		t.Fatalf("norm[1] = %v, want 0 (zero column)", norms[1])
	}
	if math.Abs(a.At(0, 0)-0.6) > 1e-12 || math.Abs(a.At(1, 0)-0.8) > 1e-12 {
		t.Fatal("column 0 not normalized")
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(3)
	a := tensor.RandomMatrix(13, 3, 3)
	if !MatMul(id, a).EqualApprox(a, 0) || !MatMul(a, id).EqualApprox(a, 0) {
		t.Fatal("identity does not act as identity")
	}
}

// Property: (A B)^T = B^T A^T.
func TestTransposeOfProductQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a := tensor.RandomMatrix(seed, m, k)
		b := tensor.RandomMatrix(seed+1, k, n)
		lhs := Transpose(MatMul(a, b))
		rhs := MatMul(Transpose(b), Transpose(a))
		return lhs.EqualApprox(rhs, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestTransposeIntoReusesBuffer: the in-place transpose fills a
// caller-owned buffer (the hoisted per-iteration allocation), matches
// the allocating form, and rejects wrong-shaped targets.
func TestTransposeIntoReusesBuffer(t *testing.T) {
	a := tensor.NewMatrixFromData([]float64{1, 4, 2, 5, 3, 6}, 2, 3)
	buf := tensor.NewMatrix(3, 2)
	TransposeInto(buf, a)
	want := Transpose(a)
	for i := range buf.Data() {
		if buf.Data()[i] != want.Data()[i] { //repro:bitwise a transpose moves words, never rounds
			t.Fatalf("element %d: %g != %g", i, buf.Data()[i], want.Data()[i])
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { TransposeInto(buf, a) }); allocs != 0 { //repro:bitwise exact allocation count
		t.Errorf("TransposeInto into warm buffer: %v allocs/op, want 0", allocs)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("TransposeInto accepted a mis-shaped target")
		}
	}()
	TransposeInto(tensor.NewMatrix(2, 2), a)
}
