package cpals

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/grid"
	"repro/internal/tensor"
)

// scheduleCounts derives, per rank, the words DecomposeParallel's
// MTTKRP collectives and its other collectives move and the messages
// it sends, for S sweeps on the given grid, from the ring schedules of
// package comm. A member at position i of a ring of q moves
//
//	All-Gather of blocks s_j:       sends every block but s_{i+1}, receives every block but s_i;
//	Reduce-Scatter of chunks c_j:   sends every chunk but c_i, receives every chunk but c_{i-1};
//	All-Reduce of n words:          a Reduce-Scatter, then an All-Gather, of the chunks grid.Part(n, q, j);
//
// with q-1 sends per ring pass. Per rank the schedule is one norm
// All-Reduce, a refresh (block-row gather, then Gram All-Reduce over
// the fiber) of every mode but 0, and per sweep, for every mode n, the
// reduce-scatter of B(n)'s block row and the refresh of mode n, then
// the fit All-Reduce.
func scheduleCounts(dims, shape []int, R, S int) (mttkrp, other, sends []int64) {
	g := grid.New(shape...)
	P, N := g.P(), len(dims)
	mttkrp, other, sends = make([]int64, P), make([]int64, P), make([]int64, P)
	at := func(s []int64, i int) int64 { return s[((i%len(s))+len(s))%len(s)] }
	sum := func(s []int64) (t int64) {
		for _, v := range s {
			t += v
		}
		return t
	}
	gather := func(s []int64, i int) int64 { return 2*sum(s) - at(s, i+1) - at(s, i) }
	scatter := func(c []int64, i int) int64 { return 2*sum(c) - at(c, i) - at(c, i-1) }
	allReduce := func(n, q, i int) (words, msgs int64) {
		c := make([]int64, q)
		for j := range c {
			lo, hi := grid.Part(n, q, j)
			c[j] = int64(hi - lo)
		}
		return scatter(c, i) + gather(c, i), int64(2 * (q - 1))
	}
	for rank := 0; rank < P; rank++ {
		coords := g.Coords(rank)
		// Per mode: the owned-shard sizes of the hyperslice's block row
		// (also B(n)'s reduce-scatter chunks), this rank's position in
		// it, and the Gram All-Reduce over the mode's fiber, where the
		// rank sits at position coords[k].
		gatherWords, scatterWords, sliceMsgs := make([]int64, N), make([]int64, N), make([]int64, N)
		gramWords, gramMsgs := make([]int64, N), make([]int64, N)
		for k := 0; k < N; k++ {
			slice := g.Slice([]int{k}, coords)
			q, i := len(slice), dist.IndexIn(slice, rank)
			rows := grid.PartSize(dims[k], shape[k], coords[k])
			s := make([]int64, q)
			for j := range s {
				s[j] = int64(grid.PartSize(rows, q, j) * R)
			}
			gatherWords[k], scatterWords[k], sliceMsgs[k] = gather(s, i), scatter(s, i), int64(q-1)
			gramWords[k], gramMsgs[k] = allReduce(R*R, shape[k], coords[k])
		}
		scalarWords, scalarMsgs := allReduce(1, P, rank)
		other[rank] += scalarWords
		sends[rank] += scalarMsgs
		refresh := func(k int) {
			mttkrp[rank] += gatherWords[k]
			other[rank] += gramWords[k]
			sends[rank] += sliceMsgs[k] + gramMsgs[k]
		}
		for k := 1; k < N; k++ {
			refresh(k)
		}
		for it := 0; it < S; it++ {
			for n := 0; n < N; n++ {
				mttkrp[rank] += scatterWords[n]
				sends[rank] += sliceMsgs[n]
				refresh(n)
			}
			other[rank] += scalarWords
			sends[rank] += scalarMsgs
		}
	}
	return mttkrp, other, sends
}

// checkSchedule fails unless every rank of a finished run moved
// exactly the words and sent exactly the messages scheduleCounts
// derives.
func checkSchedule(t *testing.T, x *tensor.Dense, shape []int, opts Options) {
	t.Helper()
	ranks, net, err := runParallel(x, shape, opts)
	if err != nil {
		t.Fatal(err)
	}
	mttkrp, other, sends := scheduleCounts(x.Dims(), shape, opts.R, len(ranks[0].fits))
	for i, r := range ranks {
		st := net.RankStats(i)
		if r.mttkrpWords != mttkrp[i] || st.Words()-r.mttkrpWords != other[i] || st.SentMsgs != sends[i] {
			t.Fatalf("%v on %v R %d, rank %d: %d MTTKRP words, %d other, %d sends; schedule %d, %d, %d",
				x.Dims(), shape, opts.R, i, r.mttkrpWords, st.Words()-r.mttkrpWords, st.SentMsgs,
				mttkrp[i], other[i], sends[i])
		}
	}
}

// TestParallelScheduleWords pins every rank's measured traffic to the
// schedule. On the balanced cp-grid shape (64³, R 8, 2×2×2, 5 sweeps)
// the maxima meet the closed form: (N-1+2NS)·2(q-1)·w MTTKRP words,
// N-1+NS Gram All-Reduces of 2R² words over p = 2 ranks plus the norm
// and fit scalars, and 2(P-1) + (N-1+NS)(q-1+2(p-1)) +
// S(N(q-1)+2(P-1)) sends. On uneven grids of orders 2-4 every rank
// meets the counts scheduleCounts derives, and at P = 1 nothing moves.
func TestParallelScheduleWords(t *testing.T) {
	const I, R, S, N, p = 64, 8, 5, 3, 2
	const P, q = p * p * p, p * p
	const w = I / P * R
	x := tensor.RandomDense(3, I, I, I)
	opts := Options{R: R, MaxIters: S, Tol: math.Inf(-1), Seed: 5}
	res, err := DecomposeParallel(x, []int{p, p, p}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.MaxMTTKRPWords(), int64((N-1+2*N*S)*2*(q-1)*w); got != want || want != 12288 {
		t.Fatalf("MTTKRP words %d, closed form %d (12288)", got, want)
	}
	// Each Gram All-Reduce over p = 2 ranks moves 2·R² words; the norm
	// and S fit scalars move at most 4 words each on a ring of 8.
	if got, want := res.MaxOtherWords(), int64((N-1+N*S)*2*R*R+(1+S)*4); got != want || want != 2200 {
		t.Fatalf("other words %d, closed form %d (2200)", got, want)
	}
	_, _, sends := scheduleCounts(x.Dims(), []int{p, p, p}, R, S)
	if want := int64(2*(P-1) + (N-1+N*S)*(q-1+2*(p-1)) + S*(N*(q-1)+2*(P-1))); slices.Max(sends) != want || want != 214 {
		t.Fatalf("scheduled sends %d, closed form %d (214)", slices.Max(sends), want)
	}
	checkSchedule(t, x, []int{p, p, p}, opts)

	for _, tc := range []struct{ dims, shape []int }{
		{[]int{13, 11, 7}, []int{3, 2, 1}},
		{[]int{9, 7}, []int{3, 2}},
		{[]int{6, 5, 7, 4}, []int{2, 1, 2, 1}},
		{[]int{12, 13, 14}, []int{4, 1, 3}},
		{[]int{8, 6, 8}, []int{2, 1, 2}},
		{[]int{5, 4, 3}, []int{1, 1, 1}},
	} {
		x := tensor.RandomDense(7, tc.dims...)
		checkSchedule(t, x, tc.shape, Options{R: 3, MaxIters: 2, Tol: math.Inf(-1), Seed: 9})
	}
	res, err = DecomposeParallel(tensor.RandomDense(11, 5, 4, 3), []int{1, 1, 1}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxMTTKRPWords() != 0 || res.MaxOtherWords() != 0 {
		t.Fatalf("P = 1 moved %d MTTKRP and %d other words", res.MaxMTTKRPWords(), res.MaxOtherWords())
	}
}

// parityGrids are the grids the parallel solver is checked on: even
// and uneven extents, unit grid extents, orders 2-4, and P = 1.
var parityGrids = []struct{ dims, shape []int }{
	{[]int{12, 10, 9}, []int{2, 2, 2}},
	{[]int{8, 6, 8}, []int{2, 1, 2}},
	{[]int{13, 11, 7}, []int{3, 2, 1}},
	{[]int{6, 5, 7, 4}, []int{2, 1, 2, 1}},
	{[]int{9, 7}, []int{3, 2}},
	{[]int{12, 13, 14}, []int{4, 1, 3}},
	{[]int{5, 4, 3}, []int{1, 1, 1}},
}

// TestParallelRanksAgree: every rank's fit trace is bitwise rank 0's,
// which DecomposeParallel reports, because every rank holds bitwise
// the same Grams, norm and inner products.
func TestParallelRanksAgree(t *testing.T) {
	for _, tc := range parityGrids {
		x := tensor.RandomDense(13, tc.dims...)
		ranks, _, err := runParallel(x, tc.shape, Options{R: 3, MaxIters: 4, Tol: math.Inf(-1), Seed: 15})
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range ranks {
			if len(r.fits) != 4 {
				t.Fatalf("%v on %v: rank %d ran %d sweeps, want 4", tc.dims, tc.shape, i, len(r.fits))
			}
			for s, f := range r.fits {
				if math.Float64bits(f) != math.Float64bits(ranks[0].fits[s]) {
					t.Fatalf("%v on %v sweep %d: rank %d fit %v, rank 0 %v", tc.dims, tc.shape, s, i, f, ranks[0].fits[s])
				}
			}
		}
	}
}

// TestParallelMatchesDecompose: every sweep's fit is within 1e-10 of
// the sequential solver's, on every parity grid.
func TestParallelMatchesDecompose(t *testing.T) {
	for _, tc := range parityGrids {
		x := tensor.RandomDense(17, tc.dims...)
		opts := Options{R: 3, MaxIters: 6, Tol: math.Inf(-1), Seed: 19}
		_, seqTrace, err := Decompose(x, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := DecomposeParallel(x, tc.shape, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Trace) != opts.MaxIters || len(seqTrace) != opts.MaxIters {
			t.Fatalf("%v on %v: %d and %d sweeps, want %d", tc.dims, tc.shape, len(res.Trace), len(seqTrace), opts.MaxIters)
		}
		for i := range seqTrace {
			if d := math.Abs(res.Trace[i].Fit - seqTrace[i].Fit); !(d <= 1e-10) {
				t.Fatalf("%v on %v sweep %d: parallel fit %v, sequential %v", tc.dims, tc.shape, i, res.Trace[i].Fit, seqTrace[i].Fit)
			}
		}
		if res.Model.Fit != res.Trace[len(res.Trace)-1].Fit { //repro:bitwise the model's fit is the last sweep's
			t.Fatalf("%v on %v: model fit %v, last sweep %v", tc.dims, tc.shape, res.Model.Fit, res.Trace[len(res.Trace)-1].Fit)
		}
	}
}

// FuzzDecomposeParallel draws order 1-4 tensors with extents 1-9, a
// grid with P at most the smallest extent, R 1-4 and 1-3 sweeps at
// Tol -Inf, sometimes all zero. The solver must not panic, must fail
// on an order-1 or zero tensor and on no well-posed input, and every
// rank must move exactly the scheduled words and messages. Each
// sweep's fit must match Decompose's within 1e-6 where rounding cannot
// be amplified: every mode's normal equations nonsingular (R at most
// the product of the other extents) and the model not near exact (fit
// below 0.999). Singular systems are solved with a ridge that
// amplifies rounding, and near an exact fit the fit identity
// ||X||² - 2<X, Xhat> + ||Xhat||² cancels; there any two solvers,
// Decompose and DecomposeTree among them, may part by more.
func FuzzDecomposeParallel(f *testing.F) {
	f.Add(uint8(2), uint64(0x080808), uint64(0x020202), uint8(1), uint8(2), false, int64(1))
	f.Add(uint8(3), uint64(0x04070906), uint64(0x01020102), uint8(3), uint8(1), false, int64(2))
	f.Add(uint8(1), uint64(0x0907), uint64(0x0203), uint8(0), uint8(0), false, int64(3))
	f.Add(uint8(0), uint64(0x05), uint64(0x01), uint8(1), uint8(1), false, int64(4))
	f.Add(uint8(2), uint64(0x030303), uint64(0x010101), uint8(0), uint8(2), true, int64(5))
	f.Fuzz(func(t *testing.T, order uint8, extents, grids uint64, rank, iters uint8, zero bool, seed int64) {
		N := 1 + int(order)%4
		dims, shape := make([]int, N), make([]int, N)
		minDim := 9
		for k := range dims {
			dims[k] = 1 + int(extents>>(8*k)&0xff)%9
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
		x := tensor.RandomDense(seed, dims...)
		if zero {
			x = tensor.NewDense(dims...)
		}
		opts := Options{R: 1 + int(rank)%4, MaxIters: 1 + int(iters)%3, Tol: math.Inf(-1), Seed: seed + 1}
		at := fmt.Sprintf("%v on %v R %d", dims, shape, opts.R)
		res, err := DecomposeParallel(x, shape, opts)
		if N == 1 || zero {
			if err == nil {
				t.Fatalf("%s zero %v: no error", at, zero)
			}
			return
		}
		// Only a singular system's ridge solve, which can overflow to
		// NaN, may fail on a valid input, and then in either solver.
		wellPosed := nonsingular(dims, opts.R)
		_, seqTrace, seqErr := Decompose(x, opts)
		if wellPosed && (err != nil || seqErr != nil) {
			t.Fatalf("%s: parallel error %v, sequential error %v", at, err, seqErr)
		}
		if err != nil {
			return
		}
		if len(res.Trace) != opts.MaxIters {
			t.Fatalf("%s: %d sweeps, want %d", at, len(res.Trace), opts.MaxIters)
		}
		for i := range seqTrace {
			if !wellPosed || seqTrace[i].Fit >= 0.999 {
				break
			}
			if d := math.Abs(res.Trace[i].Fit - seqTrace[i].Fit); !(d <= 1e-6) {
				t.Fatalf("%s sweep %d: parallel fit %v, sequential %v", at, i, res.Trace[i].Fit, seqTrace[i].Fit)
			}
		}
		checkSchedule(t, x, shape, opts)
	})
}

// nonsingular reports whether every mode's normal equations can be
// nonsingular: the Khatri-Rao product of the other factors has at
// least R rows.
func nonsingular(dims []int, R int) bool {
	for n := range dims {
		rows := 1
		for k, d := range dims {
			if k != n {
				rows *= d
			}
		}
		if rows < R {
			return false
		}
	}
	return true
}
