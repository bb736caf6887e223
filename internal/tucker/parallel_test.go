package tucker

import (
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/grid"
	"repro/internal/obs/flight"
	"repro/internal/simnet"
	"repro/internal/tensor"
	"repro/internal/ttm"
)

// scheduleCounts derives, per rank, the words DecomposeParallel's
// factor All-Gathers and its All-Reduces move and the messages it
// sends, for S sweeps on the given grid, from the ring schedules of
// package comm. A member at position i of a ring of q moves
//
//	All-Gather of blocks s_j:       sends every block but s_{i+1}, receives every block but s_i;
//	All-Reduce of n words:          a Reduce-Scatter, then an All-Gather, of the chunks EvenPart(n, q, j),
//	                                sending every chunk but c_i and receiving every chunk but c_{i-1} first;
//
// with q-1 sends per ring pass. Per rank the schedule is one norm
// All-Reduce of 1 word over all P ranks, then per sweep and mode k an
// All-Gather of every other factor's owned rows over its hyperslice
// and an All-Reduce over all P ranks of the I_k × prod_{j≠k} R_j
// padded projection, and per sweep an All-Reduce of the prod R_j core.
func scheduleCounts(dims, ranks, shape []int, S int) (gathers, reduces, sends []int64) {
	g := grid.New(shape...)
	P, N := g.P(), len(dims)
	gathers, reduces, sends = make([]int64, P), make([]int64, P), make([]int64, P)
	at := func(s []int64, i int) int64 { return s[((i%len(s))+len(s))%len(s)] }
	sum := func(s []int64) (t int64) {
		for _, v := range s {
			t += v
		}
		return t
	}
	gather := func(s []int64, i int) int64 { return 2*sum(s) - at(s, i+1) - at(s, i) }
	allReduce := func(n, i int) (words, msgs int64) {
		c := make([]int64, P)
		for j := range c {
			lo, hi := comm.EvenPart(n, P, j)
			c[j] = int64(hi - lo)
		}
		return 2*sum(c) - at(c, i) - at(c, i-1) + gather(c, i), int64(2 * (P - 1))
	}
	core := 1
	for _, r := range ranks {
		core *= r
	}
	for rank := 0; rank < P; rank++ {
		coords := g.Coords(rank)
		words, msgs := allReduce(1, rank)
		reduces[rank] += words
		sends[rank] += msgs
		for it := 0; it < S; it++ {
			for k := 0; k < N; k++ {
				for j := 0; j < N; j++ {
					if j == k {
						continue
					}
					slice := g.Slice([]int{j}, coords)
					q := len(slice)
					rows := grid.PartSize(dims[j], shape[j], coords[j])
					s := make([]int64, q)
					for m := range s {
						s[m] = int64(grid.PartSize(rows, q, m) * ranks[j])
					}
					gathers[rank] += gather(s, dist.IndexIn(slice, rank))
					sends[rank] += int64(q - 1)
				}
				words, msgs := allReduce(dims[k]*core/ranks[k], rank)
				reduces[rank] += words
				sends[rank] += msgs
			}
			words, msgs := allReduce(core, rank)
			reduces[rank] += words
			sends[rank] += msgs
		}
	}
	return gathers, reduces, sends
}

// checkSchedule runs DecomposeParallel for S sweeps under a flight
// recorder and fails unless every rank moved exactly the gather and
// All-Reduce words and sent exactly the messages scheduleCounts
// derives. It returns the run.
func checkSchedule(t *testing.T, x *tensor.Dense, ranks, shape []int, S int) *ParallelResult {
	t.Helper()
	P := 1
	for _, s := range shape {
		P *= s
	}
	rec := flight.NewDistributed(P, 1<<12)
	flight.Enable(rec)
	res, err := DecomposeParallel(x, shape, Options{Ranks: ranks, MaxIters: S, Tol: math.Inf(-1)}, 5)
	flight.Disable()
	if err != nil {
		t.Fatal(err)
	}
	got := make([]int64, P)
	for _, ev := range rec.Events() {
		if ev.Kind == uint8(flight.KindSend) {
			got[ev.Pid]++
		}
	}
	gathers, reduces, sends := scheduleCounts(x.Dims(), ranks, shape, S)
	for i := range got {
		if res.GatherWords[i] != gathers[i] || res.ReduceWords[i] != reduces[i] || got[i] != sends[i] {
			t.Fatalf("%v ranks %v on %v, rank %d: %d gather words, %d all-reduce words, %d sends; schedule %d, %d, %d",
				x.Dims(), ranks, shape, i, res.GatherWords[i], res.ReduceWords[i], got[i], gathers[i], reduces[i], sends[i])
		}
	}
	return res
}

// TestParallelScheduleWords pins every rank's measured traffic to the
// schedule. At ci.sh's smoke shape (32³, ranks 24, 2×2×2, 2 sweeps;
// P = 8, hyperslices of q = 4, owned shards of w = (I/P)·R words) the
// maxima meet the closed forms: S·N(N-1)·2(q-1)·w gather words, and
// S·N·4(P-1)/P·I·R^(N-1) projection plus S·4(P-1)/P·R^N core words
// plus at most 4 norm words of All-Reduce, in 162 sends. On uneven
// grids of orders 2-4 every rank meets the counts scheduleCounts
// derives, and at P = 1 nothing moves.
func TestParallelScheduleWords(t *testing.T) {
	const I, R, S, N, P, q = 32, 24, 2, 3, 8, 4
	x := tensor.RandomDense(3, I, I, I)
	res := checkSchedule(t, x, []int{R, R, R}, []int{2, 2, 2}, S)
	if got, want := res.MaxGatherWords(), int64(S*N*(N-1)*2*(q-1)*(I/P)*R); got != want || want != 6912 {
		t.Fatalf("gather words %d, closed form %d (6912)", got, want)
	}
	proj := int64(S * N * 4 * (P - 1) * I * R * R / P)
	core := int64(S * 4 * (P - 1) * R * R * R / P)
	if proj != 387072 || core != 96768 {
		t.Fatalf("closed forms: %d projection and %d core words, want 387072 and 96768", proj, core)
	}
	if got, want := res.MaxReduceWords(), proj+core+4; got != want || want != 483844 {
		t.Fatalf("all-reduce words %d, closed form %d (483844)", got, want)
	}
	_, _, sends := scheduleCounts(x.Dims(), []int{R, R, R}, []int{2, 2, 2}, S)
	if want := int64(2*(P-1) + S*(N*(2*(q-1)+2*(P-1))+2*(P-1))); maxOf(sends) != want || want != 162 {
		t.Fatalf("scheduled sends %d, closed form %d (162)", maxOf(sends), want)
	}

	for _, tc := range []struct{ dims, shape []int }{
		{[]int{12, 10, 9}, []int{2, 2, 2}},
		{[]int{8, 6, 8}, []int{2, 1, 2}},
		{[]int{13, 11, 7}, []int{3, 2, 1}},
		{[]int{6, 5, 7, 4}, []int{2, 1, 2, 1}},
		{[]int{9, 7}, []int{3, 2}},
		{[]int{12, 13, 14}, []int{4, 1, 3}},
		{[]int{5, 4, 3}, []int{1, 1, 1}},
	} {
		ranks := make([]int, len(tc.dims))
		for k, d := range tc.dims {
			ranks[k] = min(d, 2+k)
		}
		res := checkSchedule(t, tensor.RandomDense(7, tc.dims...), ranks, tc.shape, 2)
		if P := len(res.GatherWords); P == 1 && res.MaxGatherWords()+res.MaxReduceWords() != 0 {
			t.Fatalf("P = 1 moved %d gather and %d all-reduce words", res.MaxGatherWords(), res.MaxReduceWords())
		}
	}
}

func TestParallelMatchesSequentialTrace(t *testing.T) {
	dims := []int{8, 8, 8}
	ranks := []int{2, 3, 2}
	x := tensor.RandomDense(81, dims...)
	init, err := InitFactors(dims, ranks, 7)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Ranks: ranks, MaxIters: 6, Tol: math.Inf(-1), Init: init}
	_, seqTrace, err := Decompose(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	par, err := DecomposeParallel(x, []int{2, 2, 2}, Options{Ranks: ranks, MaxIters: 6, Tol: math.Inf(-1)}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Trace) != opts.MaxIters || len(seqTrace) != opts.MaxIters {
		t.Fatalf("trace lengths %d and %d, want %d", len(par.Trace), len(seqTrace), opts.MaxIters)
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
	res, err := DecomposeParallel(x, []int{1, 1}, Options{Ranks: []int{2, 2}, MaxIters: 4, Tol: math.Inf(-1)}, 13)
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
	_, seqTrace, err := Decompose(x, Options{Ranks: []int{2, 2}, MaxIters: 4, Tol: math.Inf(-1), Init: init})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != 4 || len(seqTrace) != 4 {
		t.Fatalf("trace lengths %d and %d, want 4", len(res.Trace), len(seqTrace))
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
	lay, err := dist.NewStationary(x.Dims(), 1, shape)
	if err != nil {
		t.Fatal(err)
	}
	g := lay.G
	net := simnet.New(g.P())
	var out []float64
	err = net.Run(func(rank int) error {
		coords := g.Coords(rank)
		local := make([]*tensor.Matrix, len(factors))
		for j, u := range factors {
			lo, hi := lay.FactorRowRange(j, coords[j])
			local[j] = u.RowBlock(lo, hi)
		}
		core := ttm.ChainWorkers(lay.LocalTensor(coords, x), local, -1, 1)
		full := comm.New(net, g.Slice(nil, coords), rank).AllReduce(core.Data())
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
