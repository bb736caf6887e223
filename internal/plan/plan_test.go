package plan

import (
	"fmt"
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
		ParEff:     0.8,
		MemEff:     0.3,
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

func TestPlanSmallShapeCutover(t *testing.T) {
	cal := testCal()
	small := Problem{Dims: []int{16, 16, 16}, R: 8, Mode: AllModes, MaxWorkers: 8}
	c, err := Plan(small, cal)
	if err != nil {
		t.Fatal(err)
	}
	if c.Engine != "fast" {
		t.Errorf("16^3 all-modes picked %q, want the fast-kernel cutover", c.Engine)
	}
	// Above the cutover the tree's reuse advantage must reassert itself.
	big := Problem{Dims: []int{32, 32, 32, 32, 32}, R: 16, Mode: AllModes, MaxWorkers: 8}
	c, err = Plan(big, cal)
	if err != nil {
		t.Fatal(err)
	}
	if c.Engine != "tree" {
		t.Errorf("32^5 all-modes picked %q, want tree", c.Engine)
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

// resultBits copies every float64 output a pass left in res.
func resultBits(res *Result) [][]float64 {
	var out [][]float64
	if res.B != nil {
		out = append(out, append([]float64(nil), res.B.Data()...))
	}
	for _, m := range res.All {
		out = append(out, append([]float64(nil), m.Data()...))
	}
	if res.Y != nil {
		out = append(out, append([]float64(nil), res.Y.Data()...))
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
	dims := []int{16, 12, 10}
	p, inst := denseProblem(t, dims, 8)
	var res Result
	for _, name := range []string{"fast", "tree"} {
		e, _ := Lookup(name)
		if err := e.Prepare(p, inst); err != nil {
			t.Fatal(err)
		}
		e.Run(p, inst, &res, 1)                                                                  // warm: grows outputs and workspaces
		if allocs := testing.AllocsPerRun(10, func() { e.Run(p, inst, &res, 1) }); allocs != 0 { //repro:bitwise exact allocation count
			t.Errorf("%s: %v allocs/op in steady state, want 0", name, allocs)
		}
	}
	// Sparse CSF path.
	coo := sparse.Random(17, 400, 30, 24, 18)
	fs := tensor.RandomFactors(9, []int{30, 24, 18}, 8)
	sp := Problem{Dims: []int{30, 24, 18}, R: 8, Mode: 0, NNZ: 400}
	sinst := &Instance{COO: coo, Factors: fs}
	e, _ := Lookup("csf")
	if err := e.Prepare(sp, sinst); err != nil {
		t.Fatal(err)
	}
	var sres Result
	e.Run(sp, sinst, &sres, 1)
	if allocs := testing.AllocsPerRun(10, func() { e.Run(sp, sinst, &sres, 1) }); allocs != 0 { //repro:bitwise exact allocation count
		t.Errorf("csf: %v allocs/op in steady state, want 0", allocs)
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

// TestTTMAdapterMatchesChain: the TTM-chain adapter must reproduce a
// direct ttm.ChainWorkers call bitwise, for both the full core chain
// (Mode = AllModes) and a skipped HOOI projection.
func TestTTMAdapterMatchesChain(t *testing.T) {
	dims := []int{12, 10, 8}
	ranks := []int{5, 4, 3}
	x := tensor.RandomDense(21, dims...)
	us := make([]*tensor.Matrix, len(dims))
	for k := range dims {
		us[k] = tensor.RandomMatrix(int64(30+k), dims[k], ranks[k])
	}
	for _, mode := range []int{AllModes, 0, 1, 2} {
		p := Problem{Dims: dims, R: 5, Mode: mode, Ranks: ranks, MaxWorkers: 4}
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
		want := ttm.ChainWorkers(x, us, p.chainSkip(), 2)
		gd, wd := res.Y.Data(), want.Data()
		if len(gd) != len(wd) {
			t.Fatalf("mode %d: length %d vs %d", mode, len(gd), len(wd))
		}
		for i := range gd {
			if gd[i] != wd[i] { //repro:bitwise the adapters must reproduce the wrapped engines exactly
				t.Fatalf("mode %d: element %d differs: %g vs %g", mode, i, gd[i], wd[i])
			}
		}
	}
}

// TestPlanPicksTTMForChains: a chain problem must route to the TTM
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
		t.Errorf("chain problem picked %q, want ttm", c.Engine)
	}
	// Small shapes must not trip the fast-kernel cutover for chains.
	small := Problem{Dims: []int{8, 8, 8}, R: 4, Mode: AllModes,
		Ranks: []int{4, 4, 4}, MaxWorkers: 4}
	c, err = Plan(small, cal)
	if err != nil {
		t.Fatal(err)
	}
	if c.Engine != "ttm" {
		t.Errorf("small chain problem picked %q, want ttm", c.Engine)
	}
	plain := Problem{Dims: []int{64, 64, 64}, R: 16, Mode: AllModes, MaxWorkers: 4}
	if (ttmEngine{}).Supports(plain) {
		t.Error("ttm engine claims a plain MTTKRP problem")
	}
}

// TestTTMAdapterZeroAllocSteadyState: once warm, the chain adapter
// must be allocation-free like the other dense engines.
func TestTTMAdapterZeroAllocSteadyState(t *testing.T) {
	dims := []int{16, 12, 10}
	ranks := []int{6, 5, 4}
	x := tensor.RandomDense(33, dims...)
	us := make([]*tensor.Matrix, len(dims))
	for k := range dims {
		us[k] = tensor.RandomMatrix(int64(40+k), dims[k], ranks[k])
	}
	p := Problem{Dims: dims, R: 6, Mode: AllModes, Ranks: ranks}
	inst := &Instance{X: x, Factors: us}
	e, _ := Lookup("ttm")
	if err := e.Prepare(p, inst); err != nil {
		t.Fatal(err)
	}
	var res Result
	e.Run(p, inst, &res, 1)
	if allocs := testing.AllocsPerRun(10, func() { e.Run(p, inst, &res, 1) }); allocs != 0 { //repro:bitwise exact allocation count
		t.Errorf("ttm: %v allocs/op in steady state, want 0", allocs)
	}
}

func TestPlanRejectsBadChainProblems(t *testing.T) {
	cal := testCal()
	bad := []Problem{
		{Dims: []int{64, 64, 64}, R: 8, Mode: AllModes, Ranks: []int{8, 8}},    // rank count
		{Dims: []int{64, 64, 64}, R: 8, Mode: AllModes, Ranks: []int{8, 0, 8}}, // zero rank
		{Dims: []int{64, 64}, R: 8, Mode: 0, NNZ: 100, Ranks: []int{8, 8}},     // sparse chain
		{Dims: []int{64, 64}, R: 8, Mode: 0, DType: F32, Ranks: []int{8, 8}},   // no f32 chain engine
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
