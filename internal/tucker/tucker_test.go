package tucker

import (
	"fmt"
	"testing"

	"repro/internal/linalg"
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
// fit phase computed, and that it is bitwise the chain of the returned
// factors — after a single sweep and after an early convergence stop.
func TestCoreIsFinalChain(t *testing.T) {
	dims := []int{7, 6, 5}
	ranks := []int{3, 2, 2}
	for _, tc := range []struct {
		name     string
		x        *tensor.Dense
		maxIters int
	}{
		{"one-sweep", tensor.RandomDense(31, dims...), 1},
		{"converged", lowMultilinear(t, dims, ranks, 37), 25},
	} {
		model, trace, err := Decompose(tc.x, Options{Ranks: ranks, MaxIters: tc.maxIters, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if tc.maxIters > 1 && len(trace) >= tc.maxIters {
			t.Fatalf("%s: ran all %d sweeps, want an early stop", tc.name, len(trace))
		}
		want := ttm.Chain(tc.x, model.Factors, -1)
		for i, v := range model.Core.Data() {
			if v != want.Data()[i] { //repro:bitwise the returned core is the chain of the returned factors
				t.Fatalf("%s: core[%d] = %v, chain of final factors %v", tc.name, i, v, want.Data()[i])
			}
		}
		if model.Fit != trace[len(trace)-1].Fit { //repro:bitwise the model's fit is the last sweep's
			t.Fatalf("%s: model fit %v, last sweep %v", tc.name, model.Fit, trace[len(trace)-1].Fit)
		}
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
}

// TestHOOISweepBodyZeroAlloc guards the steady-state allocation
// contract Decompose documents: with the per-mode projection, Gram,
// and core buffers warmed, a full sweep's TTM work (everything except
// the eigensolves, which allocate their own factor matrices) touches
// the heap zero times.
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
// projections, their Grams and the core chain — all a Decompose sweep
// runs but the eigensolves — touch the heap zero times. Order 5 nests
// two partials on the stack.
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
		x := lowMultilinear(t, dims, ranks, 67)
		model, _, err := Decompose(x, Options{Ranks: ranks, MaxIters: 2})
		if err != nil {
			t.Fatal(err)
		}
		ws := ttm.GetWorkspace()
		ys := projectionViews(dims, ranks)
		grams := gramViews(dims)
		coreBuf := tensor.NewDense(ranks...)
		gram := func(k int, y *tensor.Dense) error {
			ttm.GramInto(grams[k], y, k, w, ws)
			return nil
		}
		sweep := func() {
			if err := ttm.TreeInto(ys, x, model.Factors, w, ws, gram); err != nil {
				t.Fatal(err)
			}
			ttm.ChainInto(coreBuf, x, model.Factors, -1, w, ws)
		}
		sweep()                                                     // warm the partial stack and ping-pong buffers
		if allocs := testing.AllocsPerRun(10, sweep); allocs != 0 { //repro:bitwise exact allocation count
			t.Errorf("workers %d: HOOI tree sweep body: %v allocs/op, want 0", w, allocs)
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
			model, trace, err := Decompose(x, Options{Ranks: tc.ranks, MaxIters: 3, Tol: 0, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref, refTrace = model, trace
				continue
			}
			same := func(what string, got, want []float64) {
				t.Helper()
				if len(got) != len(want) {
					t.Fatalf("%v workers %d: %s has %d values, want %d", tc.dims, workers, what, len(got), len(want))
				}
				for i, v := range got {
					if v != want[i] { //repro:bitwise worker-count independence
						t.Fatalf("%v workers %d: %s[%d] = %v, 1 worker %v", tc.dims, workers, what, i, v, want[i])
					}
				}
			}
			for k, u := range model.Factors {
				same(fmt.Sprintf("factor %d", k), u.Data(), ref.Factors[k].Data())
			}
			same("core", model.Core.Data(), ref.Core.Data())
			same("fit", []float64{model.Fit}, []float64{ref.Fit})
			same("trace", traceFits(trace), traceFits(refTrace))
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
