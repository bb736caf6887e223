package tucker

import (
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/grid"
	"repro/internal/simnet"
	"repro/internal/tensor"
	"repro/internal/ttm"
)

func TestParallelMatchesSequentialTrace(t *testing.T) {
	dims := []int{8, 8, 8}
	ranks := []int{2, 3, 2}
	x := tensor.RandomDense(81, dims...)
	init, err := InitFactors(dims, ranks, 7)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Ranks: ranks, MaxIters: 6, Tol: 0, Init: init}
	_, seqTrace, err := Decompose(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	par, err := DecomposeParallel(x, []int{2, 2, 2}, Options{Ranks: ranks, MaxIters: 6, Tol: 0}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Trace) != len(seqTrace) {
		t.Fatalf("trace lengths %d vs %d", len(par.Trace), len(seqTrace))
	}
	for i := range seqTrace {
		if math.Abs(par.Trace[i].Fit-seqTrace[i].Fit) > 1e-8 {
			t.Fatalf("sweep %d: parallel fit %v vs sequential %v",
				i, par.Trace[i].Fit, seqTrace[i].Fit)
		}
	}
}

func TestParallelRecoversExactMultilinearRank(t *testing.T) {
	dims := []int{8, 8, 8}
	ranks := []int{2, 2, 2}
	x := lowMultilinear(t, dims, ranks, 83)
	res, err := DecomposeParallel(x, []int{2, 2, 2}, Options{Ranks: ranks, MaxIters: 20}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Model.Fit < 0.9999 {
		t.Fatalf("parallel fit %v on exact low-rank data", res.Model.Fit)
	}
	rec := res.Model.Reconstruct()
	if rec.MaxAbsDiff(x) > 1e-5*x.Norm() {
		t.Fatalf("reconstruction error %v", rec.MaxAbsDiff(x))
	}
}

func TestParallelCommBreakdown(t *testing.T) {
	dims := []int{8, 8, 8}
	x := tensor.RandomDense(85, dims...)
	res, err := DecomposeParallel(x, []int{2, 2, 2}, Options{Ranks: []int{2, 2, 2}, MaxIters: 3, Tol: 0}, 11)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxGatherWords() <= 0 || res.MaxReduceWords() <= 0 {
		t.Fatalf("both phases should communicate: gather=%d reduce=%d",
			res.MaxGatherWords(), res.MaxReduceWords())
	}
}

func TestParallelSingleProc(t *testing.T) {
	dims := []int{6, 6}
	x := tensor.RandomDense(87, dims...)
	res, err := DecomposeParallel(x, []int{1, 1}, Options{Ranks: []int{2, 2}, MaxIters: 4, Tol: 0}, 13)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxGatherWords() != 0 || res.MaxReduceWords() != 0 {
		t.Fatal("P=1 should not communicate")
	}
	init, err := InitFactors(dims, []int{2, 2}, 13)
	if err != nil {
		t.Fatal(err)
	}
	_, seqTrace, err := Decompose(x, Options{Ranks: []int{2, 2}, MaxIters: 4, Tol: 0, Init: init})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seqTrace {
		if math.Abs(res.Trace[i].Fit-seqTrace[i].Fit) > 1e-10 {
			t.Fatalf("P=1 parallel differs from sequential at sweep %d", i)
		}
	}
}

func TestParallelErrors(t *testing.T) {
	x := tensor.RandomDense(1, 4, 4)
	if _, err := DecomposeParallel(x, []int{2}, Options{Ranks: []int{2, 2}}, 1); err == nil {
		t.Fatal("shape length mismatch should error")
	}
	if _, err := DecomposeParallel(x, []int{4, 2}, Options{Ranks: []int{2, 2}}, 1); err == nil {
		t.Fatal("P > min dim should error")
	}
	if _, err := DecomposeParallel(x, []int{2, 2}, Options{Ranks: []int{2}}, 1); err == nil {
		t.Fatal("rank count mismatch should error")
	}
	if _, err := DecomposeParallel(x, []int{2, 2}, Options{Ranks: []int{9, 2}}, 1); err == nil {
		t.Fatal("rank > extent should error")
	}
	if _, err := DecomposeParallel(x, []int{2, 2}, Options{Ranks: []int{2, 2}, MaxIters: -1}, 1); err == nil {
		t.Fatal("negative MaxIters should error")
	}
}

func TestSequentialInitOptionErrors(t *testing.T) {
	x := tensor.RandomDense(1, 4, 4)
	if _, _, err := Decompose(x, Options{Ranks: []int{2, 2}, Init: []*tensor.Matrix{nil, nil}}); err == nil {
		t.Fatal("nil init factors should error")
	}
	if _, _, err := Decompose(x, Options{Ranks: []int{2, 2}, Init: []*tensor.Matrix{tensor.NewMatrix(4, 2)}}); err == nil {
		t.Fatal("init length mismatch should error")
	}
}

// TestParallelModelMatchesTrace: DecomposeParallel's model is the one
// its last sweep computed on the simulated machine. Model.Fit is
// bitwise the trace's last fit, and Model.Core bitwise the all-reduced
// core of the returned factors, which the test rebuilds through the
// same per-rank chains and All-Reduce.
func TestParallelModelMatchesTrace(t *testing.T) {
	for _, tc := range []struct{ dims, ranks, shape []int }{
		{[]int{32, 32, 32}, []int{24, 24, 24}, []int{2, 2, 2}},
		{[]int{16, 12, 10}, []int{4, 3, 5}, []int{2, 2, 1}},
	} {
		x := tensor.RandomDense(81, tc.dims...)
		res, err := DecomposeParallel(x, tc.shape, Options{Ranks: tc.ranks, MaxIters: 3, Tol: 0}, 81)
		if err != nil {
			t.Fatal(err)
		}
		last := res.Trace[len(res.Trace)-1].Fit
		if res.Model.Fit != last { //repro:bitwise the model's fit is the last sweep's
			t.Fatalf("%v: model fit %v, last sweep %v (diff %g)", tc.dims, res.Model.Fit, last, res.Model.Fit-last)
		}
		want := allReducedCore(t, x, tc.shape, res.Model.Factors)
		for i, v := range res.Model.Core.Data() {
			if v != want[i] { //repro:bitwise the model's core is the last all-reduced core
				t.Fatalf("%v: core[%d] = %v, all-reduced %v", tc.dims, i, v, want[i])
			}
		}
	}
}

// allReducedCore returns rank 0's All-Reduce of the per-rank local
// core chains over factors, as DecomposeParallel's fit phase forms it.
func allReducedCore(t *testing.T, x *tensor.Dense, shape []int, factors []*tensor.Matrix) []float64 {
	t.Helper()
	g := grid.New(shape...)
	P := g.P()
	lay := dist.NewStationary(x.Dims(), 1, g)
	net := simnet.New(P)
	var out []float64
	err := net.Run(func(rank int) error {
		coords := g.Coords(rank)
		local := make([]*tensor.Matrix, len(factors))
		for j, u := range factors {
			lo, hi := lay.FactorRowRange(j, coords[j])
			local[j] = u.RowBlock(lo, hi)
		}
		core := ttm.ChainWorkers(lay.LocalTensor(coords, x), local, -1, 1)
		full := comm.New(net, worldRanks(P), rank).AllReduce(core.Data())
		if rank == 0 {
			out = full
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
