package linalg

import (
	"math"
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
// 17} through the three data orders on each dispatch level the host
// has — the 512-bit tiles, the init-time kernel set with the tiles
// unbound, and the scalar kernels — pinning asm-vs-oracle agreement for
// every micro-kernel fringe in m, n and k. n = 8 and 16 reach the 16x8
// tile at m = 16 and 17 (one and two 8-column groups, with and without
// a row remainder), and GemmTN's 6x8 tile at 16 and 17 rows of C.
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
	forEachLevel(t, run)
}

// forEachLevel runs f under one subtest per dispatch level the host
// binds: "dispatch=avx512" while the 512-bit tiles are bound, then
// "dispatch="+Path() with them unbound, then "dispatch=scalar".
func forEachLevel(t *testing.T, f func(t *testing.T)) {
	if simd.Tiles() != "" {
		t.Run("dispatch="+simd.Tiles(), f)
		restore := simd.ForceNoTiles()
		t.Run("dispatch="+simd.Path(), f)
		restore()
	} else {
		t.Run("dispatch="+simd.Path(), f)
	}
	restore := simd.ForceScalar()
	defer restore()
	t.Run("dispatch=scalar", f)
}

// TestGemmNNBitwiseFMAChain pins GemmNN's and GemmNT's element
// contract on every FMA level the host binds (the 512-bit tiles and the
// AVX2 or NEON kernels): every C(i,j) is s = math.FMA(A(i,l), B(l,j), s)
// over l ascending from 0, at workers 1-3. The shapes cross the 16-row
// and 8-column tile edges (n of 8, 12, 24 and 25 at m of 16, 17, 31, 33
// and 1024, which also puts the parallel GemmNN on row panels) and the
// 256-deep k blocks, and include cp-dense's root chunk (128x1024x16)
// and cp-grid's root (32x1024x8).
func TestGemmNNBitwiseFMAChain(t *testing.T) {
	if simd.Path() == "scalar" {
		t.Skip("the scalar kernels round a*b and the sum separately")
	}
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {7, 3, 15}, {8, 5, 16}, {9, 17, 17}, {16, 256, 32},
		{17, 257, 33}, {37, 301, 11}, {8, 32, 1000}, {300, 600, 19},
		{128, 1024, 16}, {32, 1024, 8},
	}
	for _, m := range []int{16, 17, 31, 33, 1024} {
		for i, n := range []int{8, 12, 24, 25} {
			shapes = append(shapes, struct{ m, k, n int }{m, []int{5, 37, 259, 64}[i], n})
		}
	}
	check := func(t *testing.T) {
		rng := rand.New(rand.NewSource(15))
		for _, s := range shapes {
			a := randMat(rng, s.m, s.k)
			b := randMat(rng, s.k, s.n)
			bt := tensor.NewMatrix(s.n, s.k)
			for l := 0; l < s.k; l++ {
				for j := 0; j < s.n; j++ {
					bt.Set(j, l, b.At(l, j))
				}
			}
			want := make([]float64, s.m*s.n)
			for j := 0; j < s.n; j++ {
				for i := 0; i < s.m; i++ {
					var v float64
					for l := 0; l < s.k; l++ {
						v = math.FMA(a.At(i, l), b.At(l, j), v)
					}
					want[i+j*s.m] = v
				}
			}
			got := make([]float64, s.m*s.n)
			for w := 1; w <= 3; w++ {
				for _, g := range []struct {
					name string
					run  func()
				}{
					{"GemmNN", func() { GemmNN(got, a.Data(), b.Data(), s.m, s.k, s.n, w) }},
					{"GemmNT", func() { GemmNT(got, a.Data(), bt.Data(), s.m, s.k, s.n, w) }},
				} {
					g.run()
					for e, v := range got {
						if v != want[e] { //repro:bitwise every element is one FMA chain over k
							t.Fatalf("%s %dx%dx%d workers=%d: element %d = %g, FMA chain %g",
								g.name, s.m, s.k, s.n, w, e, v, want[e])
						}
					}
				}
			}
		}
	}
	if simd.Tiles() != "" {
		t.Run("dispatch="+simd.Tiles(), check)
		restore := simd.ForceNoTiles()
		defer restore()
	}
	t.Run("dispatch="+simd.Path(), check)
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

// TestGemmTNBitwiseDotReference pins GemmTN's element contract: every
// C(i,j) of a four-column group is exactly the simd.Dot4 value of A's
// column i against the group, and every C(i,j) of the n mod 4
// remainder exactly its simd.Dot value, at workers 1-8. The shapes
// cross the 2x4 tile's odd last row (odd ka), every n mod 4 residue,
// short and tail-only contractions (m < 4), and, at m = 128 and 300,
// the cache blocks of A's columns (ka beyond one block). Where the dot
// tiles are bound (m from 4 to 256), a block of 12 rows or more runs
// the 6x8 tile on n of 8 or more: ka of 12, 13, 37, 512 and 1031 leave
// zero, one, one, two and five rows after its whole tiles, and n of 9,
// 15, 17 and 35 leave column remainders after one to four 8-column
// groups. A block of 3 to 11 rows (ka of 4 to 11, and 1031's last block
// at m = 128) runs the 3x16 tile on n of 16 or more, and n of 8 and 15
// below it run no tile. The last shapes cross the 6x8 tile's panels of
// B (512 columns at m = 128, 256 at m = 256), ending in a part panel
// and a column remainder. It runs on every dispatch level the host
// binds.
func TestGemmTNBitwiseDotReference(t *testing.T) {
	forEachLevel(t, checkGemmTNDotReference)
}

func checkGemmTNDotReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	check := func(m, ka, n int) {
		a := randMat(rng, m, ka)
		b := randMat(rng, m, n)
		ad, bd := a.Data(), b.Data()
		want := make([]float64, ka*n)
		for i := 0; i < ka; i++ {
			ai := ad[i*m : i*m+m]
			j := 0
			for ; j+4 <= n; j += 4 {
				want[i+j*ka], want[i+(j+1)*ka], want[i+(j+2)*ka], want[i+(j+3)*ka] = simd.Dot4(ai,
					bd[j*m:j*m+m], bd[(j+1)*m:(j+1)*m+m], bd[(j+2)*m:(j+2)*m+m], bd[(j+3)*m:(j+3)*m+m])
			}
			for ; j < n; j++ {
				want[i+j*ka] = simd.Dot(ai, bd[j*m:j*m+m])
			}
		}
		got := make([]float64, ka*n)
		for w := 1; w <= 8; w++ {
			GemmTN(got, ad, bd, m, ka, n, w)
			for e, v := range got {
				if v != want[e] { //repro:bitwise GemmTN is the per-element Dot4/Dot value
					t.Fatalf("GemmTN m=%d ka=%d n=%d workers=%d: element %d = %g, reference %g",
						m, ka, n, w, e, v, want[e])
				}
			}
		}
	}
	for _, m := range []int{1, 3, 4, 5, 128, 300} {
		for _, ka := range []int{1, 2, 4, 5, 6, 7, 8, 11, 12, 13, 37, 512, 513, 1031} {
			for _, n := range []int{4, 5, 6, 7, 8, 9, 15, 16, 17, 24, 32, 35} {
				check(m, ka, n)
			}
		}
	}
	for _, s := range [][3]int{{128, 12, 1043}, {128, 13, 1043}, {256, 30, 530}} {
		check(s[0], s[1], s[2])
	}
}

// TestGemmZeroAlloc: at two workers and past gemmSmall, every GEMM
// kernel — GemmNN on column and on row panels, GemmTN, GemmNT,
// Gemm32NN and Gemm32TN — allocates nothing once the fanout pool has
// grown. The worker count is explicit because AllocsPerRun pins
// GOMAXPROCS to 1.
func TestGemmZeroAlloc(t *testing.T) {
	const m, k, n = 4096, 32, 16
	rng := rand.New(rand.NewSource(14))
	a := randMat(rng, m, k).Data()
	b := randMat(rng, m, n).Data()
	a32 := make([]float32, len(a))
	for i, v := range a {
		a32[i] = float32(v)
	}
	c := make([]float64, m*n)
	for _, g := range []struct {
		name string
		run  func()
	}{
		{"GemmNN/cols", func() { GemmNN(c[:m*n], a[:m*k], b[:k*n], m, k, n, 2) }},
		{"GemmNN/rows", func() { GemmNN(c[:m], a[:m*k], b[:k], m, k, 1, 2) }},
		{"GemmTN", func() { GemmTN(c[:k*n], a, b, m, k, n, 2) }},
		{"GemmNT", func() { GemmNT(c[:m*n], a[:m*k], b[:n*k], m, k, n, 2) }},
		{"Gemm32NN", func() { Gemm32NN(c[:m*n], a32[:m*k], b[:k*n], m, k, n, 2) }},
		{"Gemm32TN", func() { Gemm32TN(c[:k*n], a32, b, m, k, n, 2) }},
	} {
		g.run()
		if allocs := testing.AllocsPerRun(10, g.run); allocs != 0 { //repro:bitwise exact allocation count
			t.Errorf("%s at 2 workers: %v allocs/op, want 0", g.name, allocs)
		}
	}
}
