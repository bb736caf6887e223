package plan

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/dimtree"
	"repro/internal/kernel"
	"repro/internal/sparse"
	"repro/internal/tensor"
	"repro/internal/ttm"
	"repro/internal/workload"
)

// testCal is a fixed calibration so planner tests are machine- and
// SIMD-path-independent.
func testCal() *Calibration {
	return &Calibration{
		Version:    calibrationVersion,
		Key:        "fixture",
		GOMAXPROCS: 8,
		FlopsSIMD:  4e9,
		StreamSIMD: 8e8,
		SpawnNs:    20000,
		CacheWords: 1 << 16,
	}
}

// TestPlanDeterministic: the same problem and calibration give the
// same plan, even when another problem's plan was applied in between.
func TestPlanDeterministic(t *testing.T) {
	cal := testCal()
	for _, p := range []Problem{
		{Dims: []int{64, 64, 64}, R: 16, Mode: AllModes, MaxWorkers: 8},
		{Dims: []int{16, 16, 16}, R: 4, Mode: 0, MaxWorkers: 8},
	} {
		a, err := Plan(p, cal)
		if err != nil {
			t.Fatal(err)
		}
		other, err := Plan(Problem{Dims: []int{8, 4096, 8}, R: 8, Mode: 1}, cal)
		if err != nil {
			t.Fatal(err)
		}
		other.Apply()
		b, err := Plan(p, cal)
		if err != nil {
			t.Fatal(err)
		}
		if a != b { //repro:bitwise the determinism contract under test: identical plans, floats included
			t.Errorf("dims %v: same problem, same calibration, different plans:\n%+v\n%+v", p.Dims, a, b)
		}
	}
}

// TestPlanTunablesIndependentOfWorkers: the bitwise worker-count-
// independence guarantee requires that block sizes and chunk counts
// never vary with the worker budget.
func TestPlanTunablesIndependentOfWorkers(t *testing.T) {
	shapes := []Problem{
		{Dims: []int{128, 128, 128}, R: 16, Mode: AllModes},
		{Dims: []int{1024, 16, 16}, R: 16, Mode: 0},
		{Dims: []int{256, 256, 256}, R: 16, Mode: 0, NNZ: 1 << 20},
	}
	cal := testCal()
	for _, p := range shapes {
		var kc0, mc0, ch0 int
		for i, w := range []int{1, 2, 3, 8} {
			p.MaxWorkers = w
			c, err := Plan(p, cal)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				kc0, mc0, ch0 = c.GemmKC, c.GemmMC, c.Chunks
				continue
			}
			if c.GemmKC != kc0 || c.GemmMC != mc0 || c.Chunks != ch0 {
				t.Errorf("dims %v: tunables vary with MaxWorkers=%d: kc/mc/chunks %d/%d/%d vs %d/%d/%d",
					p.Dims, w, c.GemmKC, c.GemmMC, c.Chunks, kc0, mc0, ch0)
			}
		}
	}
}

// TestApplyLeavesUnplannedCSFBitwise: applying a plan writes no
// package state, so a CSF pass that was never planned gives the same
// bits before and after another problem's plan is applied.
func TestApplyLeavesUnplannedCSFBitwise(t *testing.T) {
	dims := []int{64, 48, 56}
	csf := sparse.FromCOO(sparse.Random(19, 20000, dims...), 0)
	fs := tensor.RandomFactors(23, dims, 8)
	before := csf.AllModes(fs, 2)
	Choice{Chunks: 256}.Apply()
	after := csf.AllModes(fs, 2)
	for k := range dims {
		matricesEqual(t, fmt.Sprintf("csf mode %d after Apply", k), after[k], before[k])
	}
}

// TestConcurrentPlansBitwise: plans are values. Problems of different
// engines and shapes, each on its own Instance and goroutine, apply
// their plans and run concurrently; every pass must reproduce that
// problem's sequential run bitwise (and -race must find nothing).
func TestConcurrentPlansBitwise(t *testing.T) {
	denseInst := func(seed int64, dims []int, R int) *Instance {
		return &Instance{X: tensor.RandomDense(seed, dims...), Factors: tensor.RandomFactors(seed+1, dims, R)}
	}
	chainDims, chainRanks := []int{30, 28, 26}, []int{6, 5, 4}
	us := make([]*tensor.Matrix, len(chainDims))
	for k := range us {
		us[k] = tensor.RandomMatrix(int64(60+k), chainDims[k], chainRanks[k])
	}
	sparseDims := []int{64, 48, 56}
	jobs := []struct {
		engine string
		p      Problem
		inst   *Instance
	}{
		{"tree", Problem{Dims: []int{24, 22, 20}, R: 8, Mode: AllModes}, denseInst(51, []int{24, 22, 20}, 8)},
		{"fast", Problem{Dims: []int{40, 36, 32}, R: 8, Mode: 1}, denseInst(53, []int{40, 36, 32}, 8)},
		{"csf", Problem{Dims: sparseDims, R: 8, Mode: AllModes, NNZ: 20000},
			&Instance{COO: sparse.Random(55, 20000, sparseDims...), Factors: tensor.RandomFactors(56, sparseDims, 8)}},
		{"ttm", Problem{Dims: chainDims, R: 6, Mode: AllModes, Ranks: chainRanks},
			&Instance{X: tensor.RandomDense(57, chainDims...), Factors: us}},
	}
	cal := testCal()
	choices := make([]Choice, len(jobs))
	want := make([][][]float64, len(jobs))
	for i, j := range jobs {
		c, err := PlanEngine(j.engine, j.p, cal)
		if err != nil {
			t.Fatal(err)
		}
		e, _ := Lookup(c.Engine)
		if err := e.Prepare(j.p, j.inst); err != nil {
			t.Fatal(err)
		}
		c.Apply()
		var res Result
		e.Run(j.p, j.inst, &res, 2)
		choices[i], want[i] = c, resultBits(&res)
	}
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, p Problem, inst *Instance) {
			defer wg.Done()
			e, _ := Lookup(choices[i].Engine)
			choices[i].Apply()
			var res Result
			for pass := 0; pass < 3; pass++ {
				e.Run(p, inst, &res, 2)
				if msg := diffBits(resultBits(&res), want[i]); msg != "" {
					t.Errorf("%s pass %d beside other plans: %s", e.Name(), pass, msg)
					return
				}
			}
		}(i, j.p, j.inst)
	}
	wg.Wait()
}

// resultBits copies every output a pass left in res, float32 outputs
// widened (exactly) to float64.
func resultBits(res *Result) [][]float64 {
	var out [][]float64
	if res.B != nil {
		out = append(out, append([]float64(nil), res.B.Data()...))
	}
	if res.B32 != nil {
		out = append(out, widen(res.B32.Data()))
	}
	for _, m := range res.All {
		out = append(out, append([]float64(nil), m.Data()...))
	}
	for _, m := range res.All32 {
		out = append(out, widen(m.Data()))
	}
	if res.Y != nil {
		out = append(out, append([]float64(nil), res.Y.Data()...))
	}
	return out
}

// widen converts float32 values to float64.
func widen(v []float32) []float64 {
	out := make([]float64, len(v))
	for i, f := range v {
		out[i] = float64(f)
	}
	return out
}

// diffBits describes the first difference between two output sets,
// or returns "" when they are bitwise equal.
func diffBits(got, want [][]float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d outputs, want %d", len(got), len(want))
	}
	for o := range want {
		if len(got[o]) != len(want[o]) {
			return fmt.Sprintf("output %d has %d elements, want %d", o, len(got[o]), len(want[o]))
		}
		for i := range want[o] {
			if got[o][i] != want[o][i] { //repro:bitwise plans must not perturb any other run's bits
				return fmt.Sprintf("output %d element %d: %g vs %g", o, i, got[o][i], want[o][i])
			}
		}
	}
	return ""
}

func TestPlanInfoRoundTrip(t *testing.T) {
	c := Choice{Engine: "tree", Workers: 4, GemmKC: 256, GemmMC: 128, Chunks: 32,
		Predicted: Cost{Words: 100, Flops: 200, Seconds: 0.5}, CalKey: "k"}
	pi := c.PlanInfo()
	if pi.Engine != "tree" || pi.Workers != 4 || pi.GemmKC != 256 || pi.GemmMC != 128 ||
		pi.Chunks != 32 || pi.PredictedWords != 100 || pi.PredictedSeconds != 0.5 || pi.CalibrationKey != "k" { //repro:bitwise exact copy check on constants
		t.Errorf("PlanInfo dropped fields: %+v", pi)
	}
}

// denseProblem builds a small dense instance for engine-adapter tests.
func denseProblem(t *testing.T, dims []int, R int) (Problem, *Instance) {
	t.Helper()
	w, err := workload.Generate(workload.Spec{Dims: dims, R: R, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	p := Problem{Dims: dims, R: R, Mode: AllModes, MaxWorkers: 4}
	return p, &Instance{X: w.X, Factors: w.Factors}
}

func matricesEqual(t *testing.T, what string, got, want *tensor.Matrix) {
	t.Helper()
	gd, wd := got.Data(), want.Data()
	if len(gd) != len(wd) {
		t.Fatalf("%s: length %d vs %d", what, len(gd), len(wd))
	}
	for i := range gd {
		if gd[i] != wd[i] { //repro:bitwise the adapters must reproduce the wrapped engines exactly
			t.Fatalf("%s: element %d differs: %g vs %g", what, i, gd[i], wd[i])
		}
	}
}

// TestFastAdapterMatchesKernel: the planner adapter must be a zero-cost
// shim — bitwise identical to calling the kernel directly.
func TestFastAdapterMatchesKernel(t *testing.T) {
	dims := []int{12, 10, 8}
	p, inst := denseProblem(t, dims, 6)
	p.Mode = 1
	e, _ := Lookup("fast")
	if err := e.Prepare(p, inst); err != nil {
		t.Fatal(err)
	}
	var res Result
	e.Run(p, inst, &res, 2)
	want := kernel.FastWorkers(inst.X, inst.Factors, 1, 2)
	matricesEqual(t, "fast mode 1", res.B, want)
}

func TestTreeAdapterMatchesDimtree(t *testing.T) {
	dims := []int{10, 9, 8, 7}
	p, inst := denseProblem(t, dims, 5)
	e, _ := Lookup("tree")
	if err := e.Prepare(p, inst); err != nil {
		t.Fatal(err)
	}
	var res Result
	e.Run(p, inst, &res, 2)
	want := dimtree.AllModesWorkers(inst.X, inst.Factors, 2)
	for n := range dims {
		matricesEqual(t, "tree mode", res.All[n], want.B[n])
	}
}

func TestCSFAdapterMatchesSparse(t *testing.T) {
	coo := sparse.Random(11, 500, 40, 30, 20)
	fs := tensor.RandomFactors(3, []int{40, 30, 20}, 8)
	p := Problem{Dims: []int{40, 30, 20}, R: 8, Mode: 0, NNZ: 500, MaxWorkers: 4}
	inst := &Instance{COO: coo, Factors: fs}
	e, _ := Lookup("csf")
	if err := e.Prepare(p, inst); err != nil {
		t.Fatal(err)
	}
	var res Result
	e.Run(p, inst, &res, 2)
	want := sparse.FromCOO(coo, 0).MTTKRPWorkers(fs, 0, 2)
	matricesEqual(t, "csf mode 0", res.B, want)
}

func TestCOOAdapterMatchesSparse(t *testing.T) {
	coo := sparse.Random(13, 200, 24, 18, 12)
	fs := tensor.RandomFactors(5, []int{24, 18, 12}, 4)
	p := Problem{Dims: []int{24, 18, 12}, R: 4, Mode: 2, NNZ: 200, MaxWorkers: 1}
	inst := &Instance{COO: coo, Factors: fs}
	e, _ := Lookup("coo")
	if err := e.Prepare(p, inst); err != nil {
		t.Fatal(err)
	}
	var res Result
	e.Run(p, inst, &res, 1)
	matricesEqual(t, "coo mode 2", res.B, sparse.MTTKRP(coo, fs, 2))
}

// TestFast32AdapterMatchesKernel: the f32 adapter mirrors operands on
// Prepare and must then match the direct f32 kernel bitwise.
func TestFast32AdapterMatchesKernel(t *testing.T) {
	dims := []int{12, 10, 8}
	p, inst := denseProblem(t, dims, 6)
	p.DType = F32
	p.Mode = 0
	e, _ := Lookup("fast32")
	if err := e.Prepare(p, inst); err != nil {
		t.Fatal(err)
	}
	var res Result
	e.Run(p, inst, &res, 1)
	want := kernel.Fast32(inst.X32, inst.Factors32, 0)
	gd, wd := res.B32.Data(), want.Data()
	if len(gd) != len(wd) {
		t.Fatalf("length %d vs %d", len(gd), len(wd))
	}
	for i := range gd {
		if gd[i] != wd[i] { //repro:bitwise the adapters must reproduce the wrapped engines exactly
			t.Fatalf("element %d differs: %g vs %g", i, gd[i], wd[i])
		}
	}
}

// TestAdapterWorkerIndependence: runs at 1, 2, and 3 workers must be
// bitwise identical through the planner adapters, preserving each
// engine's determinism contract.
func TestAdapterWorkerIndependence(t *testing.T) {
	dims := []int{14, 12, 10}
	p, inst := denseProblem(t, dims, 8)
	for _, name := range []string{"fast", "tree"} {
		e, _ := Lookup(name)
		if err := e.Prepare(p, inst); err != nil {
			t.Fatal(err)
		}
		var ref Result
		e.Run(p, inst, &ref, 1)
		refCopy := make([]*tensor.Matrix, len(dims))
		for n := range refCopy {
			refCopy[n] = tensor.NewMatrix(ref.All[n].Rows(), ref.All[n].Cols())
			copy(refCopy[n].Data(), ref.All[n].Data())
		}
		for _, w := range []int{2, 3} {
			var res Result
			e.Run(p, inst, &res, w)
			for n := range dims {
				matricesEqual(t, name+" worker-independence", res.All[n], refCopy[n])
			}
		}
	}
}

// TestAdapterZeroAllocSteadyState: after a warm first pass, Run must
// not allocate — the planner must not tax the hot loops it schedules.
func TestAdapterZeroAllocSteadyState(t *testing.T) {
	// The 2-worker cases are past the serial cutoffs: the boundary
	// GEMMs exceed gemmSmall, and the interior and all-modes CSF
	// buckets reach ReduceTree's parallel section. The worker count is
	// explicit because AllocsPerRun pins GOMAXPROCS to 1.
	for _, c := range []struct {
		dims       []int
		R, workers int
	}{{[]int{16, 12, 10}, 8, 1}, {[]int{24, 48, 20}, 24, 2}} {
		p, inst := denseProblem(t, c.dims, c.R)
		var res Result
		for _, name := range []string{"fast", "tree"} {
			e, _ := Lookup(name)
			if err := e.Prepare(p, inst); err != nil {
				t.Fatal(err)
			}
			e.Run(p, inst, &res, c.workers)                                                                  // warm: grows outputs and workspaces
			if allocs := testing.AllocsPerRun(10, func() { e.Run(p, inst, &res, c.workers) }); allocs != 0 { //repro:bitwise exact allocation count
				t.Errorf("%s workers %d: %v allocs/op in steady state, want 0", name, c.workers, allocs)
			}
		}
	}
	// Sparse CSF path.
	for _, c := range []struct {
		dims               []int
		nnz, R, mode, work int
	}{{[]int{30, 24, 18}, 400, 8, 0, 1}, {[]int{64, 48, 56}, 4000, 16, AllModes, 2}} {
		coo := sparse.Random(17, c.nnz, c.dims...)
		fs := tensor.RandomFactors(9, c.dims, c.R)
		sp := Problem{Dims: c.dims, R: c.R, Mode: c.mode, NNZ: int64(c.nnz)}
		sinst := &Instance{COO: coo, Factors: fs}
		e, _ := Lookup("csf")
		if err := e.Prepare(sp, sinst); err != nil {
			t.Fatal(err)
		}
		var sres Result
		e.Run(sp, sinst, &sres, c.work)
		if allocs := testing.AllocsPerRun(10, func() { e.Run(sp, sinst, &sres, c.work) }); allocs != 0 { //repro:bitwise exact allocation count
			t.Errorf("csf workers %d: %v allocs/op in steady state, want 0", c.work, allocs)
		}
	}
}

func TestPlanRejectsBadProblems(t *testing.T) {
	cal := testCal()
	bad := []Problem{
		{Dims: []int{64}, R: 8, Mode: 0},               // order 1
		{Dims: []int{64, 64}, R: 0, Mode: 0},           // rank 0
		{Dims: []int{64, 64}, R: 8, Mode: 2},           // mode out of range
		{Dims: []int{64, 0}, R: 8, Mode: 0},            // zero dim
		{Dims: []int{64, 64}, R: 8, Mode: 0, NNZ: -1},  // negative nnz
		{Dims: []int{64, 64}, R: 8, Mode: 0, DType: 9}, // no engine for dtype
	}
	for i, p := range bad {
		if _, err := Plan(p, cal); err == nil {
			t.Errorf("case %d: Plan accepted %+v", i, p)
		}
	}
}

// TestTTMAdapterMatchesSweep: a ttm engine pass is the HOOI sweep
// body with the factors fixed. Its core must be bitwise a direct
// ttm.TreeInto walk plus the TTM of the last projection, at the same
// worker count, and within 1e-12 relative of ttm.ChainScalar, on a
// balanced tree, a moved split and a root of leaf chains.
func TestTTMAdapterMatchesSweep(t *testing.T) {
	for _, tc := range []struct{ dims, ranks []int }{
		{[]int{12, 10, 8}, []int{5, 4, 3}},
		{[]int{32, 32, 32}, []int{16, 4, 4}},
		{[]int{8, 13, 2, 23}, []int{5, 1, 1, 23}},
	} {
		N := len(tc.dims)
		x := tensor.RandomDense(21, tc.dims...)
		us := make([]*tensor.Matrix, N)
		for k := range us {
			us[k] = tensor.RandomMatrix(int64(30+k), tc.dims[k], tc.ranks[k])
		}
		p := Problem{Dims: tc.dims, R: 5, Mode: AllModes, Ranks: tc.ranks, MaxWorkers: 4}
		inst := &Instance{X: x, Factors: us}
		e, ok := Lookup("ttm")
		if !ok {
			t.Fatal("no ttm engine registered")
		}
		if !e.Supports(p) {
			t.Fatalf("ttm engine does not support %+v", p)
		}
		if err := e.Prepare(p, inst); err != nil {
			t.Fatal(err)
		}
		var res Result
		e.Run(p, inst, &res, 2)

		var last *tensor.Dense
		err := ttm.TreeInto(ttm.ProjectionViews(tc.dims, tc.ranks), x, us, 2, ttm.NewWorkspace(), func(_ int, y *tensor.Dense) error {
			last = y
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		want := tensor.NewDense(tc.ranks...)
		ttm.TTMInto(want, last, us[N-1], N-1, 2)
		gd, wd := res.Y.Data(), want.Data()
		if len(gd) != len(wd) {
			t.Fatalf("%v: length %d vs %d", tc.dims, len(gd), len(wd))
		}
		for i := range gd {
			if gd[i] != wd[i] { //repro:bitwise the adapters must reproduce the wrapped engines exactly
				t.Fatalf("%v: element %d differs: %g vs %g", tc.dims, i, gd[i], wd[i])
			}
		}
		scalar := ttm.ChainScalar(x, us, -1)
		scale := 0.0
		for _, v := range scalar.Data() {
			scale = math.Max(scale, math.Abs(v))
		}
		if d := res.Y.MaxAbsDiff(scalar) / scale; !(d <= 1e-12) {
			t.Fatalf("%v: core vs ChainScalar relative diff %g", tc.dims, d)
		}
	}
}

// TestPlanPicksTTMForChains: a Tucker problem must route to the TTM
// engine (the MTTKRP engines all decline it), and MTTKRP problems must
// never see the TTM engine.
func TestPlanPicksTTMForChains(t *testing.T) {
	cal := testCal()
	p := Problem{Dims: []int{64, 64, 64}, R: 16, Mode: AllModes,
		Ranks: []int{16, 16, 16}, MaxWorkers: 4}
	c, err := Plan(p, cal)
	if err != nil {
		t.Fatal(err)
	}
	if c.Engine != "ttm" {
		t.Errorf("Tucker problem picked %q, want ttm", c.Engine)
	}
	// So must a small one.
	small := Problem{Dims: []int{8, 8, 8}, R: 4, Mode: AllModes,
		Ranks: []int{4, 4, 4}, MaxWorkers: 4}
	c, err = Plan(small, cal)
	if err != nil {
		t.Fatal(err)
	}
	if c.Engine != "ttm" {
		t.Errorf("small Tucker problem picked %q, want ttm", c.Engine)
	}
	plain := Problem{Dims: []int{64, 64, 64}, R: 16, Mode: AllModes, MaxWorkers: 4}
	if (ttmEngine{}).Supports(plain) {
		t.Error("ttm engine claims a plain MTTKRP problem")
	}
}

// TestTTMAdapterZeroAllocSteadyState: once warm, the sweep adapter
// must be allocation-free like the other dense engines.
func TestTTMAdapterZeroAllocSteadyState(t *testing.T) {
	// The 2-worker case is past the serial cutoffs: its interior slab
	// sections and trailing GEMMs run on two slots. The worker count is
	// explicit because AllocsPerRun pins GOMAXPROCS to 1.
	for _, c := range []struct {
		dims, ranks []int
		workers     int
	}{{[]int{16, 12, 10}, []int{6, 5, 4}, 1}, {[]int{40, 36, 32}, []int{8, 8, 8}, 2}} {
		x := tensor.RandomDense(33, c.dims...)
		us := make([]*tensor.Matrix, len(c.dims))
		for k := range c.dims {
			us[k] = tensor.RandomMatrix(int64(40+k), c.dims[k], c.ranks[k])
		}
		p := Problem{Dims: c.dims, R: 6, Mode: AllModes, Ranks: c.ranks}
		inst := &Instance{X: x, Factors: us}
		e, _ := Lookup("ttm")
		if err := e.Prepare(p, inst); err != nil {
			t.Fatal(err)
		}
		var res Result
		e.Run(p, inst, &res, c.workers)
		if allocs := testing.AllocsPerRun(10, func() { e.Run(p, inst, &res, c.workers) }); allocs != 0 { //repro:bitwise exact allocation count
			t.Errorf("ttm workers %d: %v allocs/op in steady state, want 0", c.workers, allocs)
		}
	}
}

func TestPlanRejectsBadChainProblems(t *testing.T) {
	cal := testCal()
	bad := []Problem{
		{Dims: []int{64, 64, 64}, R: 8, Mode: AllModes, Ranks: []int{8, 8}},         // rank count
		{Dims: []int{64, 64, 64}, R: 8, Mode: AllModes, Ranks: []int{8, 0, 8}},      // zero rank
		{Dims: []int{64, 64, 64}, R: 8, Mode: AllModes, Ranks: []int{8, 65, 8}},     // rank above its extent
		{Dims: []int{64, 64, 64}, R: 8, Mode: 1, Ranks: []int{8, 8, 8}},             // one mode, not a sweep
		{Dims: []int{64, 64}, R: 8, Mode: AllModes, NNZ: 100, Ranks: []int{8, 8}},   // sparse Tucker
		{Dims: []int{64, 64}, R: 8, Mode: AllModes, DType: F32, Ranks: []int{8, 8}}, // no f32 Tucker engine
	}
	for i, p := range bad {
		if _, err := Plan(p, cal); err == nil {
			t.Errorf("case %d: Plan accepted %+v", i, p)
		}
	}
}

func TestEnginesRegistry(t *testing.T) {
	names := Engines()
	want := []string{"fast", "fast32", "tree", "csf", "coo", "ttm"}
	if len(names) != len(want) {
		t.Fatalf("registry %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("registry %v, want %v", names, want)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup found a nonexistent engine")
	}
}
