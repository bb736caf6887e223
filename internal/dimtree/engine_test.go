package dimtree

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/kernel"
	"repro/internal/seq"
	"repro/internal/tensor"
)

// engineShapes covers orders 3-5, non-cubical extents, and degenerate
// (extent-1) modes in every position class (prefix, interior, suffix).
var engineShapes = [][]int{
	{3, 4, 5},
	{9, 2, 6},
	{1, 5, 4},
	{4, 5, 1},
	{2, 7, 3, 4},
	{3, 1, 4, 2},
	{2, 3, 2, 4, 3},
	{3, 1, 4, 1, 2},
}

// TestEngineMatchesOracleAndKernel: the GEMM engine agrees with the
// Definition 2.1 oracle seq.Ref and with N independent KRP-splitting
// kernel calls to 1e-10, at every worker count.
func TestEngineMatchesOracleAndKernel(t *testing.T) {
	for _, dims := range engineShapes {
		R := 4
		x := tensor.RandomDense(41, dims...)
		fs := tensor.RandomFactors(43, dims, R)
		for _, w := range []int{1, 2, 8} {
			got := AllModesWorkers(x, fs, w)
			for n := range dims {
				want := seq.Ref(x, fs, n)
				if !got.B[n].EqualApprox(want, 1e-10) {
					t.Fatalf("dims %v workers %d mode %d: vs oracle diff %g",
						dims, w, n, got.B[n].MaxAbsDiff(want))
				}
				indep := kernel.FastWorkers(x, fs, n, w)
				if !got.B[n].EqualApprox(indep, 1e-10) {
					t.Fatalf("dims %v workers %d mode %d: vs kernel diff %g",
						dims, w, n, got.B[n].MaxAbsDiff(indep))
				}
			}
		}
	}
}

// TestEngineBitwiseWorkerIndependence: the engine's documented
// contract — not tolerance-equal, bitwise-equal at any parallelism.
// 64^3 R8 puts the mode-0 root on the chunked prefix path and 32^3 R8
// keeps it one GEMM.
func TestEngineBitwiseWorkerIndependence(t *testing.T) {
	for _, c := range []struct {
		dims []int
		R    int
	}{{[]int{8, 8, 8}, 5}, {[]int{6, 5, 4, 3}, 5}, {[]int{3, 4, 2, 3, 2}, 5}, {[]int{64, 64, 64}, 8}, {[]int{32, 32, 32}, 8}} {
		dims, R := c.dims, c.R
		x := tensor.RandomDense(47, dims...)
		fs := tensor.RandomFactors(53, dims, R)
		base := AllModesWorkers(x, fs, 1)
		for _, w := range []int{2, 3, 8} {
			got := AllModesWorkers(x, fs, w)
			for n := range dims {
				bd, gd := base.B[n].Data(), got.B[n].Data()
				for i := range bd {
					if gd[i] != bd[i] { //repro:bitwise the bitwise worker-count-independence contract under test
						t.Fatalf("dims %v workers %d mode %d elem %d: %x != %x",
							dims, w, n, i, gd[i], bd[i])
					}
				}
			}
			if got.Flops != base.Flops {
				t.Fatalf("dims %v workers %d: flops %d != %d", dims, w, got.Flops, base.Flops)
			}
		}
	}
}

// TestEngineChunkedRootMatchesSeqRef: with the root keeping [0, 1) of
// 64^3 R8 and [0, 2) of 16x16x24x24 R4 on the chunked prefix path,
// every leaf agrees with the Definition 2.1 oracle to 1e-12 relative.
func TestEngineChunkedRootMatchesSeqRef(t *testing.T) {
	for _, c := range []struct {
		dims []int
		R    int
	}{{[]int{64, 64, 64}, 8}, {[]int{16, 16, 24, 24}, 4}} {
		x := tensor.RandomDense(97, c.dims...)
		fs := tensor.RandomFactors(101, c.dims, c.R)
		res := AllModesWorkers(x, fs, 2)
		for n := range c.dims {
			want := seq.Ref(x, fs, n)
			scale := 0.0
			for _, v := range want.Data() {
				scale = math.Max(scale, math.Abs(v))
			}
			if e := res.B[n].MaxAbsDiff(want) / scale; e > 1e-12 {
				t.Errorf("dims %v R=%d mode %d: differs from seq.Ref by %.3g relative", c.dims, c.R, n, e)
			}
		}
	}
}

// TestEngineZeroAllocSteadyState: a warmed engine traversing the tree
// into a reused Result allocates nothing — the multi-MTTKRP analogue
// of the kernel package's FastInto guarantee.
func TestEngineZeroAllocSteadyState(t *testing.T) {
	// The 2-worker cases are past the serial cutoffs: both root GEMMs
	// exceed gemmSmall and the partials split their ranks, and at 64^3
	// the mode-0 root runs chunked on slot scratch and buckets. The
	// worker count is explicit because AllocsPerRun pins GOMAXPROCS to 1.
	for _, c := range []struct {
		dims       []int
		R, workers int
	}{{[]int{16, 16, 16}, 4, 1}, {[]int{8, 6, 4, 5, 3}, 4, 1}, {[]int{32, 32, 32}, 16, 2}, {[]int{64, 64, 64}, 8, 2}} {
		x := tensor.RandomDense(59, c.dims...)
		fs := tensor.RandomFactors(61, c.dims, c.R)
		e := NewEngine(c.workers)
		res := &Result{}
		e.AllModesInto(res, x, fs)                                                                  // warm buffers and output matrices
		if allocs := testing.AllocsPerRun(10, func() { e.AllModesInto(res, x, fs) }); allocs != 0 { //repro:bitwise exact allocation count
			t.Errorf("dims %v workers %d: steady state allocates %v objects/op, want 0", c.dims, c.workers, allocs)
		}
	}
}

// rangeRef is the seq.Ref oracle of the contraction keeping the mode
// range [lo, hi): X viewed as an L x M x Rt 3-tensor whose outer
// factors are the Khatri-Rao products of the dropped modes (a row of
// ones for an empty side), returned as the M x R result.
func rangeRef(x *tensor.Dense, fs []*tensor.Matrix, lo, hi int) *tensor.Matrix {
	R := fs[0].Cols()
	side := func(ks []*tensor.Matrix) (*tensor.Matrix, int) {
		if len(ks) == 0 {
			ones := tensor.NewMatrix(1, R)
			ones.Fill(1)
			return ones, 1
		}
		krp := tensor.KRPAll(append(ks[:len(ks):len(ks)], nil), len(ks))
		return krp, krp.Rows()
	}
	kl, L := side(fs[:lo])
	kr, Rt := side(fs[hi:])
	x3 := tensor.NewDenseFromData(x.Data(), L, x.Elems()/(L*Rt), Rt)
	return seq.Ref(x3, []*tensor.Matrix{kl, nil, kr}, 1)
}

// TestEngineContractTensorMatchesRef: every contiguous keep range of
// an order-4 tensor (prefix, suffix, interior, full) agrees with
// rangeRef.
func TestEngineContractTensorMatchesRef(t *testing.T) {
	dims := []int{3, 4, 2, 5}
	R := 3
	x := tensor.RandomDense(67, dims...)
	fs := tensor.RandomFactors(71, dims, R)
	e := NewEngine(2)
	for lo := 0; lo < 4; lo++ {
		for hi := lo + 1; hi <= 4; hi++ {
			want := rangeRef(x, fs, lo, hi)
			got := make([]float64, want.Rows()*R)
			e.ContractTensorInto(got, x, fs, R, lo, hi)
			assertClose(t, got, want.Data(), 1e-10, "keep", lo, hi)
		}
	}
}

// TestEngineContractPartialMatchesRef: partial contractions over a
// mid-tree partial (modes 1..3 of an order-4 tensor) agree with the
// direct contraction of the same range for every proper prefix and
// suffix keep, the two kinds a tree's partial contractions make.
func TestEngineContractPartialMatchesRef(t *testing.T) {
	dims := []int{3, 4, 2, 5}
	R := 3
	x := tensor.RandomDense(73, dims...)
	fs := tensor.RandomFactors(79, dims, R)
	e := NewEngine(2)
	part := make([]float64, 4*2*5*R)
	e.ContractTensorInto(part, x, fs, R, 1, 4)
	for _, k := range [][2]int{{1, 2}, {1, 3}, {2, 4}, {3, 4}} {
		lo, hi := k[0], k[1]
		m := R
		for _, d := range dims[lo:hi] {
			m *= d
		}
		want := make([]float64, m)
		e.ContractTensorInto(want, x, fs, R, lo, hi)
		got := make([]float64, len(want))
		e.contractPart(got, part, x, fs, R, 1, 4, lo, hi)
		assertClose(t, got, want, 1e-10, "partial keep", lo, hi)
	}
}

// TestEngineLeavesMatchSeqRef anchors the whole chain to the atomic
// reference kernel on a non-cubical order-4 shape.
func TestEngineLeavesMatchSeqRef(t *testing.T) {
	dims := []int{5, 3, 6, 2}
	R := 4
	x := tensor.RandomDense(83, dims...)
	fs := tensor.RandomFactors(89, dims, R)
	res := AllModes(x, fs)
	for n := range dims {
		want := seq.Ref(x, fs, n)
		if !res.B[n].EqualApprox(want, 1e-10) {
			t.Fatalf("mode %d: vs seq.Ref diff %g", n, res.B[n].MaxAbsDiff(want))
		}
	}
}

func assertClose(t *testing.T, got, want []float64, tol float64, what string, lo, hi int) {
	t.Helper()
	for i := range got {
		if d := math.Abs(got[i] - want[i]); d > tol {
			t.Fatalf("%s [%d,%d): elem %d differs by %g (tol %g)", what, lo, hi, i, d, tol)
		}
	}
}

// TestSweepALSOrder: a Sweep whose leaf overwrites factors[n] with a
// fixed function of B(n) forms every B(n) from the factors of an ALS
// sweep — the modes below n as their leaves left them, the modes above
// n as passed in — at orders 2-6 (5 and 6 split unevenly) and ranks
// 1-4, within refBound of seq.Ref, and bitwise the same at 1 and 3
// workers. A Sweep whose leaf changes nothing is bitwise AllModesInto,
// flops included.
func TestSweepALSOrder(t *testing.T) {
	update := func(b *tensor.Matrix) *tensor.Matrix {
		u := b.Clone()
		for i, v := range u.Data() {
			u.Data()[i] = math.Sin(v)
		}
		return u
	}
	for _, dims := range [][]int{{5, 4}, {4, 3, 5}, {3, 4, 2, 3}, {2, 3, 2, 3, 2}, {2, 2, 3, 2, 2, 3}} {
		N := len(dims)
		x := tensor.RandomDense(107, dims...)
		for R := 1; R <= 4; R++ {
			var runs [2][]*tensor.Matrix
			for wi, w := range []int{1, 3} {
				e := NewEngine(w)
				orig := tensor.RandomFactors(109, dims, R)
				fs := make([]*tensor.Matrix, N)
				bs := make([]*tensor.Matrix, N)
				for k := range fs {
					fs[k] = orig[k].Clone()
					bs[k] = tensor.NewMatrix(dims[k], R)
				}
				got := make([]*tensor.Matrix, N)
				if _, err := e.Sweep(bs, x, fs, R, func(n int) error {
					got[n] = bs[n].Clone()
					copy(fs[n].Data(), update(bs[n]).Data())
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				for n := range dims {
					want := make([]*tensor.Matrix, N)
					for k := range want {
						switch {
						case k < n:
							want[k] = update(got[k])
						case k > n:
							want[k] = orig[k]
						}
					}
					refBound(t, fmt.Sprintf("dims %v R %d workers %d mode %d", dims, R, w, n), got[n], x, want, n)
				}
				runs[wi] = got

				// A leaf that changes nothing: bitwise AllModesInto.
				fl, err := e.Sweep(bs, x, orig, R, func(n int) error {
					got[n] = bs[n].Clone()
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				res := NewEngine(w).AllModes(x, orig)
				if fl != res.Flops {
					t.Fatalf("dims %v R %d: Sweep flops %d, AllModesInto %d", dims, R, fl, res.Flops)
				}
				for n := range dims {
					bitwiseEqual(t, fmt.Sprintf("dims %v R %d mode %d vs AllModesInto", dims, R, n), got[n], res.B[n])
				}
			}
			for n := range dims {
				bitwiseEqual(t, fmt.Sprintf("dims %v R %d mode %d at 3 workers", dims, R, n), runs[1][n], runs[0][n])
			}
		}
	}
}

// TestSweepLeafErrorStops: the first error a leaf returns is Sweep's,
// and no output after that leaf is written.
func TestSweepLeafErrorStops(t *testing.T) {
	dims := []int{3, 4, 2, 3, 2}
	R := 2
	x := tensor.RandomDense(113, dims...)
	fs := tensor.RandomFactors(127, dims, R)
	stop := errors.New("stop")
	for k := range dims {
		bs := make([]*tensor.Matrix, len(dims))
		for n := range bs {
			bs[n] = tensor.NewMatrix(dims[n], R)
			bs[n].Fill(math.NaN())
		}
		_, err := NewEngine(1).Sweep(bs, x, fs, R, func(n int) error {
			if n == k {
				return stop
			}
			return nil
		})
		if !errors.Is(err, stop) {
			t.Fatalf("leaf %d: Sweep returned %v", k, err)
		}
		for n := k + 1; n < len(dims); n++ {
			for _, v := range bs[n].Data() {
				if !math.IsNaN(v) {
					t.Fatalf("leaf %d errored, yet output %d was written", k, n)
				}
			}
		}
	}
}

// refBound fails unless got matches seq.Ref's mode-n MTTKRP of fs
// elementwise to within 4(J+N)·eps of the same MTTKRP on |x| and |fs|,
// J = I/I_n the contraction length: a first-order bound on the
// rounding of two associations of one sum of N-fold products.
func refBound(t *testing.T, at string, got *tensor.Matrix, x *tensor.Dense, fs []*tensor.Matrix, n int) {
	t.Helper()
	const eps = 0x1p-52
	abs := func(d []float64) {
		for i, v := range d {
			d[i] = math.Abs(v)
		}
	}
	want := seq.Ref(x, fs, n)
	absX := x.Clone()
	abs(absX.Data())
	absFs := make([]*tensor.Matrix, len(fs))
	for k, f := range fs {
		if k != n {
			absFs[k] = f.Clone()
			abs(absFs[k].Data())
		}
	}
	bound := seq.Ref(absX, absFs, n)
	tol := 4 * float64(x.Elems()/x.Dim(n)+x.Order()) * eps
	for i, w := range want.Data() {
		if d := math.Abs(got.Data()[i] - w); d > tol*bound.Data()[i] {
			t.Fatalf("%s: element %d differs from seq.Ref by %g, bound %g", at, i, d, tol*bound.Data()[i])
		}
	}
}

func bitwiseEqual(t *testing.T, at string, got, want *tensor.Matrix) {
	t.Helper()
	for i, v := range want.Data() {
		if got.Data()[i] != v { //repro:bitwise the bitwise contract under test
			t.Fatalf("%s: element %d is %x, want %x", at, i, got.Data()[i], v)
		}
	}
}
