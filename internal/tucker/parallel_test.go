package tucker

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/linalg"
	"repro/internal/tensor"
)

// scheduleCounts derives, per rank, the words DecomposeParallel's
// All-Reduces move and the messages it sends, for S sweeps on the
// given grid, from the ring schedule of package comm. A member at
// position i of a ring of q runs an All-Reduce of n words as a
// Reduce-Scatter, then an All-Gather, of the chunks c_j =
// grid.Part(n, q, j): the first sends every chunk but c_i and receives
// every chunk but c_{i-1}, the second sends every chunk but c_{i+1}
// and receives every chunk but c_i, each in q-1 sends. Per rank the
// schedule is one norm All-Reduce of 1 word over all P ranks, then per
// sweep and mode k one All-Reduce over all P ranks of the
// I_k × prod_{j≠k} R_j padded projection.
func scheduleCounts(dims, ranks, shape []int, S int) (words, sends []int64) {
	P := 1
	for _, s := range shape {
		P *= s
	}
	words, sends = make([]int64, P), make([]int64, P)
	allReduce := func(n int) {
		c := make([]int64, P)
		var sum int64
		for j := range c {
			lo, hi := grid.Part(n, P, j)
			c[j] = int64(hi - lo)
			sum += c[j]
		}
		at := func(j int) int64 { return c[(j+P)%P] }
		for i := range words {
			words[i] += 4*sum - 2*at(i) - at(i-1) - at(i+1)
			sends[i] += int64(2 * (P - 1))
		}
	}
	allReduce(1)
	for it := 0; it < S; it++ {
		for k := range dims {
			n := dims[k]
			for j, r := range ranks {
				if j != k {
					n *= r
				}
			}
			allReduce(n)
		}
	}
	return words, sends
}

// checkSchedule runs DecomposeParallel with opts and fails unless
// every rank moved exactly the words and sent exactly the messages
// scheduleCounts derives. It returns the run.
func checkSchedule(t *testing.T, x *tensor.Dense, shape []int, opts Options) *ParallelResult {
	t.Helper()
	res, err := DecomposeParallel(x, shape, opts, 5)
	if err != nil {
		t.Fatal(err)
	}
	words, sends := scheduleCounts(x.Dims(), opts.Ranks, shape, len(res.Trace))
	if len(res.Traffic) != len(words) {
		t.Fatalf("%v on %v: %d ranks' traffic, want %d", x.Dims(), shape, len(res.Traffic), len(words))
	}
	for i, s := range res.Traffic {
		if s.Words() != words[i] || s.SentMsgs != sends[i] {
			t.Fatalf("%v ranks %v on %v, rank %d: %d words, %d sends; schedule %d, %d",
				x.Dims(), opts.Ranks, shape, i, s.Words(), s.SentMsgs, words[i], sends[i])
		}
	}
	return res
}

// TestParallelScheduleWords pins every rank's measured traffic to the
// schedule. At ci.sh's smoke shape (32³, ranks 24, 2×2×2, 2 sweeps;
// P = 8) the maximum meets the closed form S·N·4(P-1)/P·I·R^(N-1)
// projection words plus at most 4 norm words, in 2(P-1)(1+S·N) sends:
// 387 076 words in 98 sends. On uneven grids of orders 2-4 every rank
// meets the counts scheduleCounts derives, and at P = 1 nothing moves.
func TestParallelScheduleWords(t *testing.T) {
	const I, R, S, N, P = 32, 24, 2, 3, 8
	x := tensor.RandomDense(3, I, I, I)
	ranks := []int{R, R, R}
	res := checkSchedule(t, x, []int{2, 2, 2}, Options{Ranks: ranks, MaxIters: S, Tol: math.Inf(-1)})
	if got, want := res.MaxWords(), int64(S*N*4*(P-1)*I*R*R/P+4); got != want || want != 387076 {
		t.Fatalf("all-reduce words %d, closed form %d (387076)", got, want)
	}
	_, sends := scheduleCounts(x.Dims(), ranks, []int{2, 2, 2}, S)
	for i, s := range sends {
		if want := int64(2 * (P - 1) * (1 + S*N)); s != want || want != 98 {
			t.Fatalf("rank %d: scheduled sends %d, closed form %d (98)", i, s, want)
		}
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
		res := checkSchedule(t, tensor.RandomDense(7, tc.dims...), tc.shape, Options{Ranks: ranks, MaxIters: 2, Tol: math.Inf(-1)})
		if len(res.Traffic) == 1 && res.MaxWords() != 0 {
			t.Fatalf("P = 1 moved %d words", res.MaxWords())
		}
	}
}

// checkTraces fails unless the two runs' fit traces have n sweeps each
// and agree within 1e-12 sweep by sweep.
func checkTraces(t *testing.T, what string, par, seq []TraceEntry, n int) {
	t.Helper()
	if len(par) != n || len(seq) != n {
		t.Fatalf("%s: trace lengths %d and %d, want %d", what, len(par), len(seq), n)
	}
	for i := range seq {
		if d := math.Abs(par[i].Fit - seq[i].Fit); !(d <= 1e-12) {
			t.Fatalf("%s sweep %d: parallel fit %v vs sequential %v", what, i, par[i].Fit, seq[i].Fit)
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
	par, err := DecomposeParallel(x, []int{2, 2, 2}, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkTraces(t, "8³ on 2×2×2", par.Trace, seqTrace, opts.MaxIters)
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
	if res.MaxWords() <= 0 {
		t.Fatalf("the projections should be all-reduced: %d words", res.MaxWords())
	}
}

func TestParallelSingleProc(t *testing.T) {
	dims := []int{6, 6}
	x := tensor.RandomDense(87, dims...)
	init, err := InitFactors(dims, []int{2, 2}, 13)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Ranks: []int{2, 2}, MaxIters: 4, Tol: math.Inf(-1), Init: init}
	res, err := DecomposeParallel(x, []int{1, 1}, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxWords() != 0 {
		t.Fatal("P=1 should not communicate")
	}
	_, seqTrace, err := Decompose(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkTraces(t, "P=1", res.Trace, seqTrace, 4)
}

// TestParallelP1IsSequential: at P = 1 the one rank walks the
// sequential sweep on all of X and sums ||X||^2 as linalg.Norm does,
// so from the same Init its factors, core and fits are bitwise
// Decompose's, at balanced and skewed ranks — a moved split, a root of
// leaf chains — on orders 2-4.
func TestParallelP1IsSequential(t *testing.T) {
	for _, tc := range []struct{ dims, ranks []int }{
		{[]int{9, 7}, []int{9, 2}},
		{[]int{10, 7, 5}, []int{3, 2, 2}},
		{[]int{16, 16, 16}, []int{8, 2, 2}},
		{[]int{8, 6, 7, 5}, []int{2, 1, 7, 3}},
		{[]int{8, 13, 2, 23}, []int{5, 1, 1, 23}},
	} {
		x := tensor.RandomDense(91, tc.dims...)
		shape := make([]int, len(tc.dims))
		for k := range shape {
			shape[k] = 1
		}
		init, err := InitFactors(tc.dims, tc.ranks, 17)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Ranks: tc.ranks, MaxIters: 3, Tol: math.Inf(-1), Init: init}
		seq, seqTrace, err := Decompose(x, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := DecomposeParallel(x, shape, opts, 1)
		if err != nil {
			t.Fatal(err)
		}
		at := fmt.Sprintf("%v ranks %v", tc.dims, tc.ranks)
		for k, u := range res.Model.Factors {
			sameBits(t, fmt.Sprintf("%s factor %d", at, k), u.Data(), seq.Factors[k].Data())
		}
		sameBits(t, at+" core", res.Model.Core.Data(), seq.Core.Data())
		if len(res.Trace) != opts.MaxIters || len(seqTrace) != opts.MaxIters {
			t.Fatalf("%s: trace lengths %d and %d, want %d", at, len(res.Trace), len(seqTrace), opts.MaxIters)
		}
		for i, e := range seqTrace {
			if got := res.Trace[i].Fit; math.Float64bits(got) != math.Float64bits(e.Fit) {
				t.Fatalf("%s sweep %d: fit %v, Decompose's %v", at, i, got, e.Fit)
			}
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
	if _, err := DecomposeParallel(x, []int{2, 2}, Options{Ranks: []int{2, 2}, Init: []*tensor.Matrix{tensor.NewMatrix(4, 2)}}, 1); err == nil {
		t.Fatal("init length mismatch should error")
	}
	if _, err := DecomposeParallel(x, []int{2, 2}, Options{Ranks: []int{2, 2}, Init: []*tensor.Matrix{tensor.NewMatrix(4, 2), tensor.NewMatrix(4, 3)}}, 1); err == nil {
		t.Fatal("wrong-shaped init factor should error")
	}
	if _, err := InitFactors([]int{4, 4}, []int{2}, 1); err == nil {
		t.Fatal("InitFactors: rank count mismatch should error")
	}
	if _, err := InitFactors([]int{8, 8, 8}, []int{9, 2, 2}, 1); err == nil {
		t.Fatal("InitFactors: rank > extent should error")
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
// bitwise the trace's last fit, and Model.Core — one TTM of the last
// all-reduced projection — matches ttm.ChainScalar of the returned
// factors within checkCoreTol's rounding bound.
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
		checkCoreTol(t, "DecomposeParallel", res.Model, x)
	}
}

// FuzzDecomposeParallel draws order 1-4 tensors with extents 1-9, a
// grid with P at most the smallest extent, ranks from 1 to each extent
// and 1-3 sweeps at Tol -Inf, started from InitFactors. Every rank must
// move exactly the scheduled words and messages; at P = 1 the factors
// and core must be bitwise Decompose's from the same Init; the factors
// must be orthonormal to 1e-10; the core must match ttm.ChainScalar of
// the factors within checkCoreTol's rounding bound; and the model's
// fit must be the last sweep's.
func FuzzDecomposeParallel(f *testing.F) {
	f.Add(uint8(2), uint64(0x080808), uint64(0x020202), uint64(0x030201), uint8(1), int64(1))
	f.Add(uint8(3), uint64(0x04070906), uint64(0x01020102), uint64(0x04030201), uint8(2), int64(2))
	f.Add(uint8(1), uint64(0x0907), uint64(0x0203), uint64(0x0909), uint8(0), int64(3))
	f.Add(uint8(0), uint64(0x05), uint64(0x01), uint64(0x02), uint8(1), int64(4))
	f.Add(uint8(2), uint64(0x090909), uint64(0x000000), uint64(0x000807), uint8(2), int64(5))
	f.Fuzz(func(t *testing.T, order uint8, extents, grids, rank uint64, iters uint8, seed int64) {
		N := 1 + int(order)%4
		dims, ranks, shape := make([]int, N), make([]int, N), make([]int, N)
		minDim := 9
		for k := range dims {
			dims[k] = 1 + int(extents>>(8*k)&0xff)%9
			ranks[k] = 1 + int(rank>>(8*k)&0xff)%dims[k]
			minDim = min(minDim, dims[k])
		}
		P := 1
		for k := range shape {
			shape[k] = 1 + int(grids>>(8*k)&0xff)%4
			for P*shape[k] > minDim {
				shape[k]--
			}
			P *= shape[k]
		}
		init, err := InitFactors(dims, ranks, seed)
		if err != nil {
			t.Fatal(err)
		}
		x := tensor.RandomDense(seed, dims...)
		opts := Options{Ranks: ranks, MaxIters: 1 + int(iters)%3, Tol: math.Inf(-1), Init: init}
		at := fmt.Sprintf("%v ranks %v on %v", dims, ranks, shape)
		res := checkSchedule(t, x, shape, opts)
		if len(res.Trace) != opts.MaxIters {
			t.Fatalf("%s: %d sweeps, want %d", at, len(res.Trace), opts.MaxIters)
		}
		if P == 1 {
			seq, _, err := Decompose(x, opts)
			if err != nil {
				t.Fatal(err)
			}
			for k, u := range res.Model.Factors {
				sameBits(t, fmt.Sprintf("%s factor %d", at, k), u.Data(), seq.Factors[k].Data())
			}
			sameBits(t, at+" core", res.Model.Core.Data(), seq.Core.Data())
		}
		for k, u := range res.Model.Factors {
			if !linalg.Gram(u).EqualApprox(linalg.Identity(ranks[k]), 1e-10) {
				t.Fatalf("%s: factor %d not orthonormal", at, k)
			}
		}
		checkCoreTol(t, "DecomposeParallel", res.Model, x)
		if last := res.Trace[len(res.Trace)-1].Fit; res.Model.Fit != last { //repro:bitwise the model's fit is the last sweep's
			t.Fatalf("%s: model fit %v, last sweep %v", at, res.Model.Fit, last)
		}
	})
}
