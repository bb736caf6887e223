package tucker

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/tensor"
	"repro/internal/ttm"
)

// lowMultilinear builds a tensor of exact multilinear rank `ranks`
// from a random core and random orthonormal factors.
func lowMultilinear(t *testing.T, dims, ranks []int, seed int64) *tensor.Dense {
	t.Helper()
	core := tensor.RandomDense(seed, ranks...)
	out := core
	for k := range dims {
		raw := tensor.RandomMatrix(seed+int64(k)+1, dims[k], ranks[k])
		q, _, err := linalg.QR(raw)
		if err != nil {
			t.Fatal(err)
		}
		out = ttm.TTM(out, linalg.Transpose(q), k)
	}
	return out
}

func TestHOOIRecoversExactMultilinearRank(t *testing.T) {
	dims := []int{6, 7, 5}
	ranks := []int{2, 3, 2}
	x := lowMultilinear(t, dims, ranks, 11)
	model, trace, err := Decompose(x, Options{Ranks: ranks})
	if err != nil {
		t.Fatal(err)
	}
	if model.Fit < 0.99999 {
		t.Fatalf("fit = %v on exact low-rank data", model.Fit)
	}
	if len(trace) == 0 {
		t.Fatal("empty trace")
	}
	rec := model.Reconstruct()
	if rec.MaxAbsDiff(x) > 1e-6*x.Norm() {
		t.Fatalf("reconstruction error %v", rec.MaxAbsDiff(x))
	}
}

func TestHOOIFitMonotone(t *testing.T) {
	x := tensor.RandomDense(13, 6, 6, 6)
	_, trace, err := Decompose(x, Options{Ranks: []int{3, 3, 3}, MaxIters: 15, Tol: 0})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(trace); i++ {
		if trace[i].Fit < trace[i-1].Fit-1e-9 {
			t.Fatalf("fit decreased at sweep %d", i)
		}
	}
}

func TestHOOIAtLeastHOSVD(t *testing.T) {
	x := tensor.RandomDense(17, 7, 6, 5)
	ranks := []int{3, 2, 2}
	hosvd, err := HOSVD(x, ranks)
	if err != nil {
		t.Fatal(err)
	}
	hooi, _, err := Decompose(x, Options{Ranks: ranks, MaxIters: 10})
	if err != nil {
		t.Fatal(err)
	}
	if hooi.Fit < hosvd.Fit-1e-9 {
		t.Fatalf("HOOI fit %v below HOSVD fit %v", hooi.Fit, hosvd.Fit)
	}
}

func TestFactorsOrthonormal(t *testing.T) {
	x := tensor.RandomDense(19, 5, 5, 5)
	model, _, err := Decompose(x, Options{Ranks: []int{2, 2, 2}, MaxIters: 5})
	if err != nil {
		t.Fatal(err)
	}
	for k, u := range model.Factors {
		if !linalg.Gram(u).EqualApprox(linalg.Identity(2), 1e-8) {
			t.Fatalf("factor %d not orthonormal", k)
		}
	}
	// Core shape.
	cd := model.Core.Dims()
	if cd[0] != 2 || cd[1] != 2 || cd[2] != 2 {
		t.Fatalf("core dims %v", cd)
	}
}

func TestFullRanksGiveExactFit(t *testing.T) {
	x := tensor.RandomDense(23, 4, 3, 4)
	model, err := HOSVD(x, []int{4, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if model.Fit < 1-1e-9 {
		t.Fatalf("full-rank Tucker fit = %v, want ~1", model.Fit)
	}
	rec := model.Reconstruct()
	if !rec.EqualApprox(x, 1e-7) {
		t.Fatal("full-rank reconstruction differs")
	}
}

// TestCoreIsFinalChain pins that Decompose returns the core its last
// fit phase computed, after a single sweep, after an early convergence
// stop and at order 1. The core is bitwise the last leaf's identity:
// ttm.TreeInto re-run over the returned factors with a leaf that
// replaces nothing, then TTMInto on what the mode-(N-1) leaf received,
// whose projection contracts only modes 0..N-2, final by then. Where
// the tree's association and ChainInto's greedy order differ — 32^3 at
// ranks (16, 4, 4), whose root splits at mode 2, and 8x13x2x23 at
// ranks (5, 1, 1, 23), whose root takes leaf chains — it also matches
// ttm.ChainScalar of the returned factors to 1e-12 relative.
func TestCoreIsFinalChain(t *testing.T) {
	for _, tc := range []struct {
		name     string
		x        *tensor.Dense
		ranks    []int
		maxIters int
	}{
		{"one-sweep", tensor.RandomDense(31, 7, 6, 5), []int{3, 2, 2}, 1},
		{"converged", lowMultilinear(t, []int{7, 6, 5}, []int{3, 2, 2}, 37), []int{3, 2, 2}, 25},
		{"moved-split", tensor.RandomDense(33, 32, 32, 32), []int{16, 4, 4}, 2},
		{"leaf-chain-root", tensor.RandomDense(35, 8, 13, 2, 23), []int{5, 1, 1, 23}, 2},
		{"order-1", tensor.RandomDense(39, 9), []int{3}, 2},
	} {
		const w = 2
		model, trace, err := Decompose(tc.x, Options{Ranks: tc.ranks, MaxIters: tc.maxIters, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if tc.name == "converged" && len(trace) >= tc.maxIters {
			t.Fatalf("%s: ran all %d sweeps, want an early stop", tc.name, len(trace))
		}
		N := tc.x.Order()
		ws := ttm.GetWorkspace()
		var last *tensor.Dense
		err = ttm.TreeInto(projectionViews(tc.x.Dims(), tc.ranks), tc.x, model.Factors, w, ws, func(_ int, y *tensor.Dense) error {
			last = y
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		want := tensor.NewDense(tc.ranks...)
		ttm.TTMInto(want, last, model.Factors[N-1], N-1, w)
		ttm.PutWorkspace(ws)
		for i, v := range model.Core.Data() {
			if v != want.Data()[i] { //repro:bitwise the returned core is the last leaf's TTM over the returned factors
				t.Fatalf("%s: core[%d] = %v, last leaf's TTM %v", tc.name, i, v, want.Data()[i])
			}
		}
		if e := relDiff(model.Core, ttm.ChainScalar(tc.x, model.Factors, -1)); !(e <= 1e-12) {
			t.Fatalf("%s: core vs ChainScalar of the final factors: relative diff %g", tc.name, e)
		}
		if model.Fit != trace[len(trace)-1].Fit { //repro:bitwise the model's fit is the last sweep's
			t.Fatalf("%s: model fit %v, last sweep %v", tc.name, model.Fit, trace[len(trace)-1].Fit)
		}
	}
}

// relDiff returns max |got - want| / max |want|.
func relDiff(got, want *tensor.Dense) float64 {
	scale := 0.0
	for _, v := range want.Data() {
		scale = math.Max(scale, math.Abs(v))
	}
	return got.MaxAbsDiff(want) / scale
}

// TestDecomposeFlopCount pins one Decompose sweep at the tucker-hooi
// workload's shape, 32^4 at ranks 8, to the closed-form count obs
// records. The truncated initialization runs the trailing mode first,
// so only its Gram and its contraction read X (S0 entries); each later
// mode sees the tensor already truncated in the modes before it (S1,
// S2, S3), and the last mode's contraction is skipped. The sweep's tree
// contracts two modes of X into each root child and one mode of a
// 32x32x8x8 partial into each leaf; the four projections (S3 entries
// each) form their Grams, and one TTM of the last one is the core.
// Each Gram merges its 16 buckets (8 where the slab count is 8: mode 2
// of the initialization and of the projection). The full-X HOSVD
// Grams and the core chain took the same sweep to 209 223 680.
func TestDecomposeFlopCount(t *testing.T) {
	const (
		s0, s1, s2, s3 = 32 * 32 * 32 * 32, 32 * 32 * 32 * 8, 32 * 32 * 8 * 8, 32 * 8 * 8 * 8
		initGrams      = 33 * (s0 + s1 + s2 + s3) // (I+1)·S each
		initTTMs       = 16 * (s0 + s1 + s2)      // 2R·S each
		tree           = 2*16*(s0+s1) + 4*16*s2
		projGrams      = 4 * 33 * s3
		leafCore       = 16 * s3
		merges         = 2 * 32 * 32 * (6*15 + 2*7)
		want           = initGrams + initTTMs + tree + projGrams + leafCore + merges
	)
	x := tensor.RandomDense(43, 32, 32, 32, 32)
	col := obs.New(0)
	obs.Enable(col)
	_, _, err := Decompose(x, Options{Ranks: []int{8, 8, 8, 8}, MaxIters: 1, Workers: 1})
	obs.Disable()
	if err != nil {
		t.Fatal(err)
	}
	if got := col.Totals().Flops; got != want || want != 116752384 {
		t.Fatalf("one sweep at 32^4 R8: %d flops, closed form %d (116752384)", got, want)
	}
}

func TestMatrixCaseIsTruncatedSVD(t *testing.T) {
	// N=2 Tucker with ranks (r, r) is a rank-r SVD approximation; the
	// fit from the core must match the optimal rank-r spectral sum.
	x := tensor.RandomDense(29, 8, 6)
	model, err := HOSVD(x, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Optimal rank-2 energy: top-2 eigenvalues of X X^T.
	xk := tensor.Unfold(x, 0)
	vals, _, err := linalg.SymEig(linalg.MatMulTransB(xk, xk))
	if err != nil {
		t.Fatal(err)
	}
	bestEnergy := vals[0] + vals[1]
	coreEnergy := model.Core.Norm() * model.Core.Norm()
	if coreEnergy > bestEnergy+1e-8 {
		t.Fatalf("core energy %v exceeds spectral optimum %v", coreEnergy, bestEnergy)
	}
	if coreEnergy < 0.98*bestEnergy {
		t.Fatalf("core energy %v far below spectral optimum %v", coreEnergy, bestEnergy)
	}
}

func TestErrors(t *testing.T) {
	x := tensor.RandomDense(1, 4, 4)
	if _, _, err := Decompose(x, Options{Ranks: []int{2}}); err == nil {
		t.Fatal("rank count mismatch should error")
	}
	if _, _, err := Decompose(x, Options{Ranks: []int{5, 2}}); err == nil {
		t.Fatal("rank > extent should error")
	}
	if _, _, err := Decompose(x, Options{Ranks: []int{2, 2}, MaxIters: -1}); err == nil {
		t.Fatal("negative MaxIters should error")
	}
	if _, _, err := Decompose(tensor.NewDense(3, 3), Options{Ranks: []int{1, 1}}); err == nil {
		t.Fatal("zero tensor should error")
	}
	if _, err := HOSVD(x, []int{9, 9}); err == nil {
		t.Fatal("HOSVD bad ranks should error")
	}
	if _, err := HOSVD(x, []int{2}); err == nil {
		t.Fatal("HOSVD rank count mismatch should error")
	}
	if _, err := HOSVD(tensor.NewDense(2, 2), []int{1, 1}); err == nil {
		t.Fatal("HOSVD zero tensor should error")
	}
	// The rank check runs before any work, the norm included, and
	// names the extent.
	for _, err := range []error{
		func() error { _, err := HOSVD(tensor.NewDense(2, 2), []int{1, 3}); return err }(),
		func() error { _, _, err := Decompose(tensor.NewDense(2, 2), Options{Ranks: []int{1, 3}}); return err }(),
	} {
		if err == nil || err.Error() != "tucker: rank 3 invalid for mode 1 (extent 2)" {
			t.Fatalf("bad rank on a zero tensor: %v", err)
		}
	}
}

// TestHOOISweepBodyZeroAlloc guards the steady-state allocation
// contract of the per-mode formulation the plan's ttm engine runs: with
// the per-mode projection, Gram, and core buffers warmed, one chain
// per mode, its Gram and the full core chain (everything but the
// eigensolves, which allocate their own factor matrices) touch the
// heap zero times.
func TestHOOISweepBodyZeroAlloc(t *testing.T) {
	dims := []int{12, 10, 8}
	ranks := []int{4, 3, 3}
	x := lowMultilinear(t, dims, ranks, 61)
	model, _, err := Decompose(x, Options{Ranks: ranks, MaxIters: 2})
	if err != nil {
		t.Fatal(err)
	}
	ws := ttm.GetWorkspace()
	defer ttm.PutWorkspace(ws)
	N := len(dims)
	gramBuf := make([]*tensor.Matrix, N)
	yBuf := make([]*tensor.Dense, N)
	for k := 0; k < N; k++ {
		gramBuf[k] = tensor.NewMatrix(dims[k], dims[k])
		ydims := append([]int(nil), ranks...)
		ydims[k] = dims[k]
		yBuf[k] = tensor.NewDense(ydims...)
	}
	coreBuf := tensor.NewDense(ranks...)
	sweep := func() {
		for k := 0; k < N; k++ {
			ttm.ChainInto(yBuf[k], x, model.Factors, k, 1, ws)
			ttm.GramInto(gramBuf[k], yBuf[k], k, 1, ws)
		}
		ttm.ChainInto(coreBuf, x, model.Factors, -1, 1, ws)
	}
	sweep()                                                     // warm the workspace ping-pong buffers
	if allocs := testing.AllocsPerRun(10, sweep); allocs != 0 { //repro:bitwise exact allocation count
		t.Errorf("HOOI sweep body: %v allocs/op, want 0", allocs)
	}
}

// TestHOOITreeSweepZeroAlloc guards the production sweep body: with
// the workspace's partial stack and ping-pong buffers warmed, the tree
// projections, their Grams and the core's one TTM of the last leaf —
// all a Decompose sweep runs but the eigensolves — touch the heap zero
// times, and so does the warmed truncated initialization (its Grams
// and contractions, with the factors fixed). Order 5 nests two
// partials on the stack.
func TestHOOITreeSweepZeroAlloc(t *testing.T) {
	// The 2-worker case is past the serial cutoffs: the interior slab
	// sections, the boundary GEMMs and the 16 Gram buckets of 40x40
	// words all run on two slots. The worker count is explicit because
	// AllocsPerRun pins GOMAXPROCS to 1.
	for _, c := range []struct {
		dims, ranks []int
		workers     int
	}{{[]int{9, 8, 7, 6, 5}, []int{3, 3, 2, 2, 2}, 1}, {[]int{40, 36, 32, 12}, []int{8, 8, 8, 4}, 2}} {
		dims, ranks, w := c.dims, c.ranks, c.workers
		N := len(dims)
		x := lowMultilinear(t, dims, ranks, 67)
		model, _, err := Decompose(x, Options{Ranks: ranks, MaxIters: 2})
		if err != nil {
			t.Fatal(err)
		}
		ws := ttm.GetWorkspace()
		ys := projectionViews(dims, ranks)
		grams := gramViews(dims)
		coreBuf := tensor.NewDense(ranks...)
		var last *tensor.Dense
		gram := func(k int, y *tensor.Dense) error {
			ttm.GramInto(grams[k], y, k, w, ws)
			last = y
			return nil
		}
		sweep := func() {
			if err := ttm.TreeInto(ys, x, model.Factors, w, ws, gram); err != nil {
				t.Fatal(err)
			}
			ttm.TTMInto(coreBuf, last, model.Factors[N-1], N-1, w)
		}
		initFactors := make([]*tensor.Matrix, N)
		factor := func(k int, y *tensor.Dense) (*tensor.Matrix, error) {
			ttm.GramInto(grams[k], y, k, w, ws)
			return model.Factors[k], nil
		}
		run := func() {
			if err := ttm.TruncateInto(nil, x, ranks, initFactors, w, ws, factor); err != nil {
				t.Fatal(err)
			}
			sweep()
		}
		run()                                                     // warm the partial stack, ping-pong buffers and headers
		if allocs := testing.AllocsPerRun(10, run); allocs != 0 { //repro:bitwise exact allocation count
			t.Errorf("workers %d: truncated initialization and HOOI tree sweep body: %v allocs/op, want 0", w, allocs)
		}
		ttm.PutWorkspace(ws)
	}
}

// TestDecomposeWorkerBitwise pins Options.Workers' promise: factors,
// core, fit and trace are bitwise identical for every worker count, on
// orders 1-5 with unequal extents and ranks, rank 1 and rank = extent
// among them.
func TestDecomposeWorkerBitwise(t *testing.T) {
	cases := []struct{ dims, ranks []int }{
		{[]int{9}, []int{1}},
		{[]int{9, 7}, []int{9, 2}},
		{[]int{10, 7, 5}, []int{3, 7, 1}},
		{[]int{8, 6, 7, 5}, []int{2, 1, 7, 3}},
		{[]int{6, 5, 4, 5, 3}, []int{2, 5, 1, 3, 3}},
	}
	for ci, tc := range cases {
		x := tensor.RandomDense(int64(71+ci), tc.dims...)
		var ref *Model
		var refTrace []TraceEntry
		for _, workers := range []int{1, 2, 3, 8} {
			model, trace, err := Decompose(x, Options{Ranks: tc.ranks, MaxIters: 3, Tol: math.Inf(-1), Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if len(trace) != 3 {
				t.Fatalf("%v workers %d: %d sweeps, want 3", tc.dims, workers, len(trace))
			}
			if ref == nil {
				ref, refTrace = model, trace
				continue
			}
			at := fmt.Sprintf("%v workers %d: ", tc.dims, workers)
			for k, u := range model.Factors {
				sameBits(t, fmt.Sprintf("%sfactor %d", at, k), u.Data(), ref.Factors[k].Data())
			}
			sameBits(t, at+"core", model.Core.Data(), ref.Core.Data())
			sameBits(t, at+"fit", []float64{model.Fit}, []float64{ref.Fit})
			sameBits(t, at+"trace", traceFits(trace), traceFits(refTrace))
		}
	}
}

func traceFits(trace []TraceEntry) []float64 {
	fits := make([]float64, len(trace))
	for i, e := range trace {
		fits[i] = e.Fit
	}
	return fits
}

// FuzzDecompose draws order 1-5 tensors with extents 1-9, ranks from 1
// to each extent and 1-3 sweeps at Tol 0 (the default tolerance).
// Decompose's factors must be orthonormal to 1e-10; its core and
// HOSVD's must match ttm.ChainScalar of their own factors within a
// rounding tolerance scaled by the contraction length, as FuzzChain's
// is, since the tree, the truncation order and the scalar chain
// associate differently; the model's fit must be the last sweep's; and
// 1 and 3 workers must agree bitwise.
func FuzzDecompose(f *testing.F) {
	f.Add(uint8(2), uint64(0x0908070605), uint64(0x0403020100), uint8(0), int64(1))
	f.Add(uint8(3), uint64(0x0302030403), uint64(0x0101020301), uint8(2), int64(2))
	f.Add(uint8(0), uint64(0x08), uint64(0x07), uint8(1), int64(3))
	f.Add(uint8(4), uint64(0x0908070605), uint64(0x0807060504), uint8(1), int64(4))
	f.Fuzz(func(t *testing.T, order uint8, shape, rank uint64, iters uint8, seed int64) {
		N := 1 + int(order)%5
		dims, ranks := make([]int, N), make([]int, N)
		for k := range dims {
			dims[k] = 1 + int(shape>>(8*k)&0xff)%9
			ranks[k] = 1 + int(rank>>(8*k)&0xff)%dims[k]
		}
		x := tensor.RandomDense(seed, dims...)
		opts := Options{Ranks: ranks, MaxIters: 1 + int(iters)%3, Tol: 0, Workers: 1}
		model, trace, err := Decompose(x, opts)
		if err != nil {
			t.Fatal(err)
		}
		for k, u := range model.Factors {
			if !linalg.Gram(u).EqualApprox(linalg.Identity(ranks[k]), 1e-10) {
				t.Fatalf("%v ranks %v: factor %d not orthonormal", dims, ranks, k)
			}
		}
		checkCoreTol(t, "Decompose", model, x)
		if model.Fit != trace[len(trace)-1].Fit { //repro:bitwise the model's fit is the last sweep's
			t.Fatalf("%v ranks %v: model fit %v, last sweep %v", dims, ranks, model.Fit, trace[len(trace)-1].Fit)
		}
		opts.Workers = 3
		model3, trace3, err := Decompose(x, opts)
		if err != nil {
			t.Fatal(err)
		}
		for k, u := range model3.Factors {
			sameBits(t, fmt.Sprintf("factor %d", k), u.Data(), model.Factors[k].Data())
		}
		sameBits(t, "core", model3.Core.Data(), model.Core.Data())
		sameBits(t, "trace", traceFits(trace3), traceFits(trace))

		hosvd, err := HOSVD(x, ranks)
		if err != nil {
			t.Fatal(err)
		}
		checkCoreTol(t, "HOSVD", hosvd, x)
	})
}

// checkCoreTol fails unless m's core matches ttm.ChainScalar of m's
// factors elementwise to within 4·n·eps of the same chain on |x| and
// the factors' absolute values, n the summed extents of x: a
// first-order bound on the rounding of two associations of one sum.
func checkCoreTol(t *testing.T, what string, m *Model, x *tensor.Dense) {
	t.Helper()
	const eps = 0x1p-52
	want := ttm.ChainScalar(x, m.Factors, -1)
	abs := absDense(x)
	n := 0
	for k, u := range m.Factors {
		abs = ttm.TTMScalar(abs, absMatrix(u), k)
		n += x.Dim(k)
	}
	for i, v := range m.Core.Data() {
		if d := math.Abs(v - want.Data()[i]); d > 4*float64(n)*eps*abs.Data()[i] {
			t.Fatalf("%s %v: core[%d] = %g, ChainScalar %g", what, x.Dims(), i, v, want.Data()[i])
		}
	}
}

// sameBits fails unless got, from a run at more workers, is bitwise
// want, from the run at one.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s has %d values, want %d", what, len(got), len(want))
	}
	for i, v := range got {
		if v != want[i] { //repro:bitwise worker-count independence
			t.Fatalf("%s[%d] = %v, 1 worker %v", what, i, v, want[i])
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
