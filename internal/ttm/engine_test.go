package ttm

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// engineShapes enumerates the property-test shapes: orders 2-5, plus
// degenerate extents (unit modes) the slab decomposition must survive.
var engineShapes = [][]int{
	{4, 5},
	{3, 4, 5},
	{5, 4, 3, 2},
	{3, 2, 4, 2, 3},
	{1, 5, 4},
	{5, 1, 4},
	{5, 4, 1},
	{1, 1, 3},
	{2, 1, 3, 1},
}

// TestEngineMatchesScalarEveryMode: the blocked engine must agree with
// the per-element scalar reference for every order, mode, and target
// rank — including rank 1.
func TestEngineMatchesScalarEveryMode(t *testing.T) {
	for si, dims := range engineShapes {
		x := tensor.RandomDense(int64(100+si), dims...)
		for mode := range dims {
			for _, R := range []int{1, 3} {
				u := tensor.RandomMatrix(int64(200+10*si+mode), dims[mode], R)
				got := TTMWorkers(x, u, mode, 1)
				want := TTMScalar(x, u, mode)
				if !got.EqualApprox(want, 1e-10) {
					t.Fatalf("dims %v mode %d R %d: engine vs scalar diff %v",
						dims, mode, R, got.MaxAbsDiff(want))
				}
			}
		}
	}
}

// chain returns x contracted on every mode but skip (-1 skips none)
// with us in the greedy order, as one node contraction of the whole
// mode range: the per-mode chain that TreeInto's leaves reproduce.
func chain(x *tensor.Dense, us []*tensor.Matrix, skip, workers int, ws *Workspace) *tensor.Dense {
	checkChain(x, us, skip)
	ranks := x.Dims()
	for k, u := range us {
		if k != skip {
			ranks[k] = u.Cols()
		}
	}
	setShape(ws, x.Dims(), ranks)
	out := tensor.NewDense(ranks...)
	contractRange(out.Data(), x.Data(), ws.extents(x), us, 0, x.Order(), skip, skip+1, workers, ws)
	return out
}

// setShape loads the shapes contractRange orders its steps by into ws,
// as TreeInto does.
func setShape(ws *Workspace, dims, ranks []int) {
	ws.shape = append(ws.shape[:0], dims...)
	ws.ranks = append(ws.ranks[:0], ranks...)
}

// TestChainMatchesScalarEverySkip: the greedy-ordered engine chain
// must match the ascending-order scalar chain (same mathematics,
// different association) for every skip, including the full chain.
func TestChainMatchesScalarEverySkip(t *testing.T) {
	ws := NewWorkspace()
	for si, dims := range engineShapes {
		x := tensor.RandomDense(int64(300+si), dims...)
		us := make([]*tensor.Matrix, len(dims))
		for k := range dims {
			us[k] = tensor.RandomMatrix(int64(400+10*si+k), dims[k], 1+k%3)
		}
		for skip := -1; skip < len(dims); skip++ {
			got := chain(x, us, skip, 1, ws)
			want := ChainScalar(x, us, skip)
			if !got.EqualApprox(want, 1e-10) {
				t.Fatalf("dims %v skip %d: chain vs scalar diff %v",
					dims, skip, got.MaxAbsDiff(want))
			}
		}
	}
}

// TestEmptyChainIsCopy: a contraction with no steps — an order-1
// tensor whose only mode is skipped — degenerates to a copy.
func TestEmptyChainIsCopy(t *testing.T) {
	x := tensor.RandomDense(11, 7)
	got := chain(x, []*tensor.Matrix{nil}, 0, 1, NewWorkspace())
	for i, v := range got.Data() {
		if v != x.Data()[i] { //repro:bitwise a copy must be exact
			t.Fatalf("element %d: %g != %g", i, v, x.Data()[i])
		}
	}
}

// TestEngineWorkerBitwise: chains, single TTMs, and Grams must be
// bitwise identical across worker counts 1-8 — the repository's
// determinism contract. The order-4 shape keeps interior modes (both
// L > 1 and Rt > 1) in play, where the parallel slab/bucket paths run.
func TestEngineWorkerBitwise(t *testing.T) {
	dims := []int{6, 7, 8, 9}
	x := tensor.RandomDense(17, dims...)
	us := make([]*tensor.Matrix, len(dims))
	for k := range dims {
		us[k] = tensor.RandomMatrix(int64(500+k), dims[k], 2+k%2)
	}
	ws := NewWorkspace()
	for skip := -1; skip < len(dims); skip++ {
		ref := chain(x, us, skip, 1, ws)
		for w := 2; w <= 8; w++ {
			got := chain(x, us, skip, w, ws)
			for i, v := range got.Data() {
				if v != ref.Data()[i] { //repro:bitwise worker-count independence
					t.Fatalf("skip %d workers %d: element %d differs", skip, w, i)
				}
			}
		}
	}
	for _, gdims := range append([][]int{dims}, gramShapes...) {
		gx := tensor.RandomDense(19, gdims...)
		for mode := range gdims {
			I := gdims[mode]
			ref := tensor.NewMatrix(I, I)
			GramInto(ref, gx, mode, 1, ws)
			checkSymmetric(t, ref, gdims, mode)
			for w := 2; w <= 8; w++ {
				got := tensor.NewMatrix(I, I)
				GramInto(got, gx, mode, w, ws)
				for i, v := range got.Data() {
					if v != ref.Data()[i] { //repro:bitwise worker-count independence
						t.Fatalf("gram %v mode %d workers %d: element %d differs", gdims, mode, w, i)
					}
				}
			}
		}
	}
}

// TestTTMTMatchesTransposedOracle: the transposed variant must equal a
// plain TTM against the materialized transpose.
func TestTTMTMatchesTransposedOracle(t *testing.T) {
	dims := []int{4, 5, 6}
	x := tensor.RandomDense(23, dims...)
	for mode := range dims {
		u := tensor.RandomMatrix(int64(600+mode), 3, dims[mode]) // 3 x I_mode
		got := TTMT(x, u, mode)
		want := TTM(x, linalg.Transpose(u), mode)
		if !got.EqualApprox(want, 1e-10) {
			t.Fatalf("mode %d: TTMT vs transposed TTM diff %v", mode, got.MaxAbsDiff(want))
		}
	}
}

// gramShapes reach every branch of GramInto's symmetric update, each
// mode of each shape becoming one Gram:
//   - leading mode (L = 1) with Rt > 256: {5, 300}, {33, 260};
//   - interior packed slabs, L from 1 to 127, with partial last packs:
//     {33, 7, 5}, {100, 3, 80}, {127, 2, 40}, {2, 5, 300}, {2, 1, 70};
//   - interior slabs with L > 256: {300, 3, 2};
//   - trailing mode (Rt = 1), including L > 256 and chunks spanning
//     several panels: {6, 5, 33}, {64, 65, 3}, {300, 3, 2};
//   - I in {1, 2, 3, 5, 33}: odd last rows, columns past the last
//     four-column group, and the 1 x 1 Gram.
var gramShapes = [][]int{
	{4, 3, 5, 2},
	{6, 5, 33},
	{33, 7, 5},
	{5, 300},
	{33, 260},
	{1, 2, 3},
	{2, 1, 70},
	{100, 3, 80},
	{127, 2, 40},
	{2, 5, 300},
	{300, 3, 2},
	{64, 65, 3},
}

// checkSymmetric fails unless g is exactly symmetric.
func checkSymmetric(t *testing.T, g *tensor.Matrix, dims []int, mode int) {
	t.Helper()
	I := g.Rows()
	d := g.Data()
	for j := 0; j < I; j++ {
		for i := j + 1; i < I; i++ {
			if d[i+j*I] != d[j+i*I] { //repro:bitwise the mirrored gram is exactly symmetric
				t.Fatalf("gram %v mode %d: g[%d,%d] = %g but g[%d,%d] = %g", dims, mode, i, j, d[i+j*I], j, i, d[j+i*I])
			}
		}
	}
}

// checkGramOracle fails unless GramInto's g matches the explicit
// unfolding product Y_(k) Y_(k)^T to a rounding tolerance that scales
// with the contraction length.
func checkGramOracle(t *testing.T, g *tensor.Matrix, y *tensor.Dense, mode int) {
	t.Helper()
	yk := tensor.Unfold(y, mode)
	want := linalg.MatMulTransB(yk, yk)
	n := float64(yk.Cols())
	for i, v := range g.Data() {
		w := want.Data()[i]
		if d := math.Abs(v - w); d > 1e-13*n*(1+math.Abs(w)) {
			t.Fatalf("gram %v mode %d: element %d = %g, oracle %g", y.Dims(), mode, i, v, w)
		}
	}
}

// TestGramMatchesUnfoldOracle: GramInto must reproduce the explicit
// unfolding product Y_(k) Y_(k)^T on every mode of every gramShapes
// entry, exactly symmetric.
func TestGramMatchesUnfoldOracle(t *testing.T) {
	ws := NewWorkspace()
	for si, dims := range gramShapes {
		y := tensor.RandomDense(int64(29+si), dims...)
		for mode := range dims {
			g := tensor.NewMatrix(dims[mode], dims[mode])
			g.Fill(-7) // GramInto must overwrite, not accumulate
			GramInto(g, y, mode, 0, ws)
			checkGramOracle(t, g, y, mode)
			checkSymmetric(t, g, dims, mode)
		}
	}
}

// FuzzModeGram draws order 1-4 tensors with extents 1-40 and checks
// every mode's Gram against the unfold oracle, for exact symmetry, and
// for bitwise equality between 1 and 3 workers.
func FuzzModeGram(f *testing.F) {
	f.Add(uint8(3), uint8(5), uint8(6), uint8(32), uint8(0), int64(1))
	f.Add(uint8(2), uint8(0), uint8(39), uint8(0), uint8(0), int64(2))
	f.Add(uint8(4), uint8(1), uint8(7), uint8(2), uint8(3), int64(3))
	f.Add(uint8(1), uint8(32), uint8(0), uint8(0), uint8(0), int64(4))
	f.Fuzz(func(t *testing.T, order, d0, d1, d2, d3 uint8, seed int64) {
		dims := []int{1 + int(d0)%40, 1 + int(d1)%40, 1 + int(d2)%40, 1 + int(d3)%40}[:1+int(order)%4]
		y := tensor.RandomDense(seed, dims...)
		ws := NewWorkspace()
		for mode, I := range dims {
			g1 := tensor.NewMatrix(I, I)
			GramInto(g1, y, mode, 1, ws)
			checkGramOracle(t, g1, y, mode)
			checkSymmetric(t, g1, dims, mode)
			g3 := tensor.NewMatrix(I, I)
			GramInto(g3, y, mode, 3, ws)
			for i, v := range g3.Data() {
				if v != g1.Data()[i] { //repro:bitwise worker-count independence
					t.Fatalf("gram %v mode %d: 3 workers differ from 1 at element %d", dims, mode, i)
				}
			}
		}
	})
}

// FuzzChain draws order 1-5 tensors with extents 1-9, ranks from 1 to
// each extent, a skip from -1 to N-1 and a contiguous mode range
// [a, b). contractRange — a TreeInto node's contraction — over every
// mode but skip must match ChainScalar, over the modes of [a, b) other
// than skip a TTMScalar loop over them (with nil matrices outside the
// range), and every TreeInto leaf ChainScalar with its skip — each
// within a rounding
// tolerance that scales with the contraction length, since the greedy,
// ascending and tree orders associate differently — and 1 and 3
// workers must agree bitwise.
func FuzzChain(f *testing.F) {
	f.Add(uint8(2), uint64(0x0908070605), uint64(0x0403020100), uint8(0), uint8(1), uint8(2), int64(1))
	f.Add(uint8(4), uint64(0x0302030403), uint64(0x0101020301), uint8(3), uint8(0), uint8(5), int64(2))
	f.Add(uint8(0), uint64(0x08), uint64(0x07), uint8(1), uint8(0), uint8(1), int64(3))
	f.Add(uint8(3), uint64(0x0001000900), uint64(0x0000000800), uint8(0), uint8(2), uint8(1), int64(4))
	f.Fuzz(func(t *testing.T, order uint8, shape, rank uint64, skipB, aB, bB uint8, seed int64) {
		N := 1 + int(order)%5
		dims, ranks := make([]int, N), make([]int, N)
		us := make([]*tensor.Matrix, N)
		for k := range dims {
			dims[k] = 1 + int(shape>>(8*k)&0xff)%9
			ranks[k] = 1 + int(rank>>(8*k)&0xff)%dims[k]
			us[k] = tensor.RandomMatrix(seed+int64(k)+1, dims[k], ranks[k])
		}
		skip := int(skipB)%(N+1) - 1
		a := int(aB) % (N + 1)
		b := a + int(bB)%(N+1-a)
		x := tensor.RandomDense(seed, dims...)
		ws := NewWorkspace()

		// Full or skipped chain.
		chain1 := chain(x, us, skip, 1, ws)
		checkChainTol(t, "chain", chain1, ChainScalar(x, us, skip), x, us, 0, N, skip)
		checkBitwise(t, "chain", chain(x, us, skip, 3, ws), chain1)

		// A node's contraction: the range but skip, with the matrices
		// outside the range unset.
		setShape(ws, dims, ranks)
		inRange := make([]*tensor.Matrix, N)
		copy(inRange[a:b], us[a:b])
		want := x
		for k := a; k < b; k++ {
			if k != skip {
				want = TTMScalar(want, us[k], k)
			}
		}
		var got1 *tensor.Dense
		for _, workers := range []int{1, 3} {
			got := tensor.NewDense(want.Dims()...)
			contractRange(got.Data(), x.Data(), ws.extents(x), inRange, a, b, skip, skip+1, workers, ws)
			if workers == 1 {
				checkChainTol(t, "range", got, want, x, us, a, b, skip)
				got1 = got
			} else {
				checkBitwise(t, "range", got, got1)
			}
		}

		// Tree walk: every leaf against the chain with its skip.
		leaves := make([]*tensor.Dense, N)
		for _, workers := range []int{1, 3} {
			err := TreeInto(ProjectionViews(dims, ranks), x, us, workers, ws, func(k int, y *tensor.Dense) error {
				if workers == 1 {
					checkChainTol(t, "tree", y, ChainScalar(x, us, k), x, us, 0, N, k)
					leaves[k] = y.Clone()
				} else {
					checkBitwise(t, "tree", y, leaves[k])
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	})
}

// checkChainTol fails unless got matches the reference contraction
// want of the modes [lo, hi) other than skip elementwise to within
// 4·n·eps of the same contraction on |x| and |us|, n the summed
// extents of the contracted modes — a first-order bound on the
// rounding of two associations of one sum.
func checkChainTol(t *testing.T, what string, got, want, x *tensor.Dense, us []*tensor.Matrix, lo, hi, skip int) {
	t.Helper()
	const eps = 0x1p-52
	abs := absDense(x)
	n := 0
	for k := lo; k < hi; k++ {
		if k != skip {
			abs = TTMScalar(abs, absMatrix(us[k]), k)
			n += x.Dim(k)
		}
	}
	for i, v := range got.Data() {
		if d := math.Abs(v - want.Data()[i]); d > 4*float64(n)*eps*abs.Data()[i] {
			t.Fatalf("%s %v [%d, %d) skip %d: element %d = %g, reference %g", what, x.Dims(), lo, hi, skip, i, v, want.Data()[i])
		}
	}
}

// checkBitwise fails unless got and want are bitwise equal.
func checkBitwise(t *testing.T, what string, got, want *tensor.Dense) {
	t.Helper()
	for i, v := range got.Data() {
		if v != want.Data()[i] { //repro:bitwise worker-count independence
			t.Fatalf("%s %v: 3 workers differ from 1 at element %d", what, got.Dims(), i)
		}
	}
}

func absDense(x *tensor.Dense) *tensor.Dense {
	out := x.Clone()
	for i, v := range out.Data() {
		out.Data()[i] = math.Abs(v)
	}
	return out
}

func absMatrix(u *tensor.Matrix) *tensor.Matrix {
	out := u.Clone()
	for i, v := range out.Data() {
		out.Data()[i] = math.Abs(v)
	}
	return out
}

// TestChainCostMatchesMeasuredWords: a priced walk promises obs.Gemm's
// operand accounting of every contraction it would run. The contraction
// of every mode but skip (-1 skips none) in the greedy order — a
// leaf-chain node's contraction into its leaf — priced by treeWalk.child
// with a count set, must equal the words and flops obs measures for the
// same contraction run, to the word and the flop.
func TestChainCostMatchesMeasuredWords(t *testing.T) {
	cases := []struct {
		dims, ranks []int
		skip        int
	}{
		{[]int{12, 10, 8}, []int{5, 4, 3}, -1},
		{[]int{12, 10, 8}, []int{5, 4, 3}, 0},
		{[]int{12, 10, 8}, []int{5, 4, 3}, 1},
		{[]int{12, 10, 8}, []int{5, 4, 3}, 2},
		{[]int{6, 5, 4, 3}, []int{3, 2, 2, 2}, -1},
		{[]int{9, 7}, []int{4, 3}, -1},
		{[]int{9, 7}, []int{4, 3}, 1},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%v-skip%d", tc.dims, tc.skip), func(t *testing.T) {
			x := tensor.RandomDense(31, tc.dims...)
			us := make([]*tensor.Matrix, len(tc.dims))
			for k := range tc.dims {
				us[k] = tensor.RandomMatrix(int64(700+k), tc.dims[k], tc.ranks[k])
			}
			ws := NewWorkspace()
			col := obs.New(0)
			obs.Enable(col)
			chain(x, us, tc.skip, 1, ws)
			obs.Disable()
			tot := col.Totals()
			var c gemmCount
			setShape(ws, tc.dims, tc.ranks)
			if err := (&treeWalk{ws: ws, count: &c}).child(nil, 0, len(tc.dims), tc.skip, tc.skip+1); err != nil {
				t.Fatal(err)
			}
			if got := tot.WordsRead + tot.WordsWritten; got != c.words {
				t.Errorf("words: measured %d, priced %d", got, c.words)
			}
			if tot.Flops != c.flops {
				t.Errorf("flops: measured %d, priced %d", tot.Flops, c.flops)
			}
		})
	}
}

// TestSweepCostMatchesMeasured: SweepCost promises obs.Gemm's operand
// accounting of one sweep body exactly — TreeInto's planned walk and
// the core's TTM of the last leaf, measured under obs, equal its words
// and flops to the word and the flop. The shapes cover orders 2-5, the
// balanced tree (32^4 at ranks 8, the tucker-hooi workload), a moved
// split (32^3 at ranks (16, 4, 4)) and a root of leaf chains
// (8x13x2x23 at ranks (5, 1, 1, 23)).
func TestSweepCostMatchesMeasured(t *testing.T) {
	for _, tc := range []struct{ dims, ranks []int }{
		{[]int{9, 7}, []int{4, 3}},
		{[]int{12, 10, 8}, []int{5, 4, 3}},
		{[]int{6, 5, 4, 3}, []int{3, 2, 2, 2}},
		{[]int{3, 4, 2, 5, 3}, []int{2, 1, 2, 3, 3}},
		{[]int{32, 32, 32, 32}, []int{8, 8, 8, 8}},
		{[]int{32, 32, 32}, []int{16, 4, 4}},
		{[]int{8, 13, 2, 23}, []int{5, 1, 1, 23}},
	} {
		N := len(tc.dims)
		x := tensor.RandomDense(31, tc.dims...)
		us := make([]*tensor.Matrix, N)
		for k := range us {
			us[k] = tensor.RandomMatrix(int64(700+k), tc.dims[k], tc.ranks[k])
		}
		core := tensor.NewDense(tc.ranks...)
		var last *tensor.Dense
		col := obs.New(0)
		obs.Enable(col)
		err := TreeInto(ProjectionViews(tc.dims, tc.ranks), x, us, 1, NewWorkspace(), func(_ int, y *tensor.Dense) error {
			last = y
			return nil
		})
		TTMInto(core, last, us[N-1], N-1, 1)
		obs.Disable()
		if err != nil {
			t.Fatal(err)
		}
		tot := col.Totals()
		words, flops := SweepCost(tc.dims, tc.ranks)
		if tot.WordsRead+tot.WordsWritten != words || tot.Flops != flops {
			t.Errorf("%v ranks %v: measured %d words and %d flops, SweepCost %d and %d",
				tc.dims, tc.ranks, tot.WordsRead+tot.WordsWritten, tot.Flops, words, flops)
		}
	}
}

// TestSteadyStateZeroAlloc: a warmed tree walk, its Grams and the
// core's TTM — the HOOI sweep body without its eigensolves — must
// allocate nothing.
func TestSteadyStateZeroAlloc(t *testing.T) {
	// The 2-worker case is past the serial cutoffs: the interior slab
	// sections and the trailing GEMMs run on two slots, and mode 0's
	// 16 Gram buckets of 40x40 words reach ReduceTree's parallel
	// section. The worker count is explicit because AllocsPerRun pins
	// GOMAXPROCS to 1.
	for _, c := range []struct {
		dims, ranks []int
		workers     int
	}{{[]int{16, 12, 10}, []int{6, 5, 4}, 1}, {[]int{40, 36, 32}, []int{8, 8, 8}, 2}} {
		dims, ranks, w := c.dims, c.ranks, c.workers
		N := len(dims)
		x := tensor.RandomDense(37, dims...)
		us := make([]*tensor.Matrix, N)
		grams := make([]*tensor.Matrix, N)
		for k := range dims {
			us[k] = tensor.RandomMatrix(int64(800+k), dims[k], ranks[k])
			grams[k] = tensor.NewMatrix(dims[k], dims[k])
		}
		ws := NewWorkspace()
		ys := ProjectionViews(dims, ranks)
		core := tensor.NewDense(ranks...)
		var last *tensor.Dense
		gram := func(k int, y *tensor.Dense) error {
			GramInto(grams[k], y, k, w, ws)
			last = y
			return nil
		}
		sweep := func() {
			if err := TreeInto(ys, x, us, w, ws, gram); err != nil {
				t.Fatal(err)
			}
			TTMInto(core, last, us[N-1], N-1, w)
		}
		sweep()                                                     // warm the partial stack and ping-pong buffers
		if allocs := testing.AllocsPerRun(10, sweep); allocs != 0 { //repro:bitwise exact allocation count
			t.Errorf("workers %d: steady-state sweep body: %v allocs/op, want 0", w, allocs)
		}
	}
}
