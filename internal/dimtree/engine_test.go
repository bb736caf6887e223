package dimtree

import (
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
// direct contraction of the same range for every prefix and suffix
// keep, including the degenerate keep == modes identity, and an
// interior keep panics.
func TestEngineContractPartialMatchesRef(t *testing.T) {
	dims := []int{3, 4, 2, 5}
	R := 3
	x := tensor.RandomDense(73, dims...)
	fs := tensor.RandomFactors(79, dims, R)
	e := NewEngine(2)
	part := tensor.NewDense(4, 2, 5, R)
	e.ContractTensorInto(part.Data(), x, fs, R, 1, 4)
	for lo := 1; lo < 4; lo++ {
		for hi := lo + 1; hi <= 4; hi++ {
			m := R
			for _, d := range dims[lo:hi] {
				m *= d
			}
			want := make([]float64, m)
			e.ContractTensorInto(want, x, fs, R, lo, hi)
			got := make([]float64, len(want))
			if lo > 1 && hi < 4 {
				// An interior keep would drop both sides; no tree does.
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("keep [%d,%d) of [1,4): no panic", lo, hi)
						}
					}()
					e.ContractPartialInto(got, part, 1, fs, R, lo, hi)
				}()
				continue
			}
			e.ContractPartialInto(got, part, 1, fs, R, lo, hi)
			assertClose(t, got, want, 1e-10, "partial keep", lo, hi)
		}
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
