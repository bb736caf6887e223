package linalg

import (
	"math/rand"
	"testing"

	"repro/internal/simd"
	"repro/internal/tensor"
)

func randMat(rng *rand.Rand, rows, cols int) *tensor.Matrix {
	m := tensor.NewMatrix(rows, cols)
	d := m.Data()
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	return m
}

func naiveNN(a, b *tensor.Matrix) *tensor.Matrix {
	c := tensor.NewMatrix(a.Rows(), b.Cols())
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < b.Cols(); j++ {
			var s float64
			for l := 0; l < a.Cols(); l++ {
				s += a.At(i, l) * b.At(l, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

func naiveTN(a, b *tensor.Matrix) *tensor.Matrix {
	c := tensor.NewMatrix(a.Cols(), b.Cols())
	for i := 0; i < a.Cols(); i++ {
		for j := 0; j < b.Cols(); j++ {
			var s float64
			for l := 0; l < a.Rows(); l++ {
				s += a.At(l, i) * b.At(l, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

func naiveNT(a, b *tensor.Matrix) *tensor.Matrix {
	c := tensor.NewMatrix(a.Rows(), b.Rows())
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < b.Rows(); j++ {
			var s float64
			for l := 0; l < a.Cols(); l++ {
				s += a.At(i, l) * b.At(j, l)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

// Shapes cross every micro-kernel edge: the 4-wide column and l
// remainders, single rows/columns, and sizes straddling the gemmKC /
// gemmMC cache-block boundaries.
var gemmShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{3, 5, 7},
	{4, 4, 4},
	{5, 9, 6},
	{17, 33, 13},
	{64, 16, 64},
	{1, 300, 4},
	{300, 1, 5},
	{31, 257, 9},
	{260, 270, 11},
}

func TestGemmNNMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range gemmShapes {
		for _, w := range []int{1, 2, 4} {
			a := randMat(rng, s.m, s.k)
			b := randMat(rng, s.k, s.n)
			c := tensor.NewMatrix(s.m, s.n)
			c.Fill(3.25) // engine must overwrite, not accumulate
			GemmNN(c.Data(), a.Data(), b.Data(), s.m, s.k, s.n, w)
			if want := naiveNN(a, b); !c.EqualApprox(want, 1e-11*float64(s.k)) {
				t.Fatalf("GemmNN %dx%dx%d workers=%d: max diff %g", s.m, s.k, s.n, w, c.MaxAbsDiff(want))
			}
		}
	}
}

func TestGemmTNMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, s := range gemmShapes {
		for _, w := range []int{1, 3} {
			a := randMat(rng, s.k, s.m) // contraction down rows
			b := randMat(rng, s.k, s.n)
			c := tensor.NewMatrix(s.m, s.n)
			c.Fill(-1)
			GemmTN(c.Data(), a.Data(), b.Data(), s.k, s.m, s.n, w)
			if want := naiveTN(a, b); !c.EqualApprox(want, 1e-11*float64(s.k)) {
				t.Fatalf("GemmTN %dx%dx%d workers=%d: max diff %g", s.m, s.k, s.n, w, c.MaxAbsDiff(want))
			}
		}
	}
}

func TestGemmNTMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, s := range gemmShapes {
		for _, w := range []int{1, 3} {
			a := randMat(rng, s.m, s.k)
			b := randMat(rng, s.n, s.k)
			c := tensor.NewMatrix(s.m, s.n)
			c.Fill(7)
			GemmNT(c.Data(), a.Data(), b.Data(), s.m, s.k, s.n, w)
			if want := naiveNT(a, b); !c.EqualApprox(want, 1e-11*float64(s.k)) {
				t.Fatalf("GemmNT %dx%dx%d workers=%d: max diff %g", s.m, s.k, s.n, w, c.MaxAbsDiff(want))
			}
		}
	}
}

func TestMatMulIntoVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randMat(rng, 37, 23)
	b := randMat(rng, 23, 19)
	c := tensor.NewMatrix(37, 19)
	MatMulInto(c, a, b)
	if !c.EqualApprox(naiveNN(a, b), 1e-10) {
		t.Fatal("MatMulInto mismatch")
	}

	at := randMat(rng, 41, 11)
	bt := randMat(rng, 41, 7)
	ct := tensor.NewMatrix(11, 7)
	MatMulTransAInto(ct, at, bt)
	if !ct.EqualApprox(naiveTN(at, bt), 1e-10) {
		t.Fatal("MatMulTransAInto mismatch")
	}

	an := randMat(rng, 13, 29)
	bn := randMat(rng, 17, 29)
	cn := tensor.NewMatrix(13, 17)
	MatMulTransBInto(cn, an, bn)
	if !cn.EqualApprox(naiveNT(an, bn), 1e-10) {
		t.Fatal("MatMulTransBInto mismatch")
	}
}

// TestGemmFringeBothDispatchPaths sweeps every extent in {1..9, 16,
// 17} through the three data orders on the init-time dispatch path
// and again with the kernels forced scalar, pinning asm-vs-oracle
// agreement for every micro-kernel fringe (the issue's m,n,k sweep).
func TestGemmFringeBothDispatchPaths(t *testing.T) {
	ext := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17}
	run := func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		for _, m := range ext {
			for _, k := range ext {
				for _, n := range ext {
					a := randMat(rng, m, k)
					b := randMat(rng, k, n)
					c := tensor.NewMatrix(m, n)
					GemmNN(c.Data(), a.Data(), b.Data(), m, k, n, 1)
					if want := naiveNN(a, b); !c.EqualApprox(want, 1e-12*float64(k)) {
						t.Fatalf("GemmNN %dx%dx%d: max diff %g", m, k, n, c.MaxAbsDiff(want))
					}
					at := randMat(rng, k, m)
					GemmTN(c.Data(), at.Data(), b.Data(), k, m, n, 1)
					if want := naiveTN(at, b); !c.EqualApprox(want, 1e-12*float64(k)) {
						t.Fatalf("GemmTN %dx%dx%d: max diff %g", m, k, n, c.MaxAbsDiff(want))
					}
					bt := randMat(rng, n, k)
					GemmNT(c.Data(), a.Data(), bt.Data(), m, k, n, 1)
					if want := naiveNT(a, bt); !c.EqualApprox(want, 1e-12*float64(k)) {
						t.Fatalf("GemmNT %dx%dx%d: max diff %g", m, k, n, c.MaxAbsDiff(want))
					}
				}
			}
		}
	}
	t.Run("dispatch="+simd.Path(), run)
	restore := simd.ForceScalar()
	defer restore()
	t.Run("dispatch=scalar", run)
}

// TestGemmBitwiseAcrossWorkers pins the determinism contract on the
// bound dispatch path: one kernel set per process means the worker
// count cannot change a single bit of the result.
func TestGemmBitwiseAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m, k, n := 129, 65, 33
	a := randMat(rng, m, k)
	b := randMat(rng, k, n)
	ref := tensor.NewMatrix(m, n)
	GemmNN(ref.Data(), a.Data(), b.Data(), m, k, n, 1)
	got := tensor.NewMatrix(m, n)
	for w := 2; w <= 8; w++ {
		GemmNN(got.Data(), a.Data(), b.Data(), m, k, n, w)
		for i, v := range got.Data() {
			if v != ref.Data()[i] { //repro:bitwise worker count must not change results
				t.Fatalf("GemmNN workers=%d differs at %d on path %s", w, i, simd.Path())
			}
		}
	}
}
