package main

import (
	"fmt"
	"math"
	"os"
	"runtime"

	"repro/internal/bounds"
	"repro/internal/cpals"
	"repro/internal/plan"
	"repro/internal/seq"
	"repro/internal/sparse"
	"repro/internal/tensor"
	"repro/internal/ttm"
	"repro/internal/tucker"
	"repro/internal/workload"
)

// Workload sizes. An op must stay short enough that a run collects at
// least minSamples ops per worker setting (see main.go), so that the
// p90 has ten samples beyond it.
const (
	cpSide, cpRank, cpSweeps = 128, 16, 2

	tuckerSide, tuckerOrder, tuckerRank, tuckerSweeps = 32, 4, 8, 1

	sparseSide, sparseNNZ, sparseRank = 256, 1_000_000, 16
	// sparseReuses is the pass count the planner amortizes the CSF
	// build over: a 25-sweep CP-ALS run.
	sparseReuses = 25

	gridSide, gridRank, gridSweeps = 64, 8, 5

	noise = 0.01
)

var gridShape = []int{2, 2, 2}

// noConvergence disables the solvers' fit-improvement stopping test,
// so every op runs exactly its fixed sweep count.
var noConvergence = math.Inf(-1)

// outcome is what one op produced, reduced to what the checks and the
// end-to-end metrics need.
type outcome struct {
	digest uint64 // bitwise digest of the op's result
	fit    float64
	// cp-grid only: per-rank maxima over one decomposition.
	commWords, mttkrpWords int64
}

// bench is one workload's inputs plus its prepared engine state.
type bench interface {
	// setup calibrates against the empty cache at calPath, plans,
	// prepares the engine and runs one warm-up op at all cores.
	setup(calPath string) error
	// op runs one unit of work with the given worker count.
	op(workers int) error
	// result reduces the latest op's result, outside the timed region.
	result() outcome
	// planLine describes the plan setup chose ("" for no planner).
	planLine() string
	// verify checks the latest op's result against an oracle.
	verify() error
	// layers fills the per-layer metrics (layers.go).
	layers(l *layerRun) error
}

type workloadDef struct {
	name     string
	generate func(seed int64) (bench, error)
}

var workloads = []workloadDef{
	{"cp-dense", newCPDense},
	{"tucker-hooi", newTucker},
	{"sparse-csf", newSparse},
	{"cp-grid", newGrid},
}

// planned holds the calibrated plan a workload runs under, chosen by
// plan.Auto exactly as the commands do under -engine auto.
type planned struct {
	prob   plan.Problem
	choice plan.Choice
}

func (p *planned) plan(calPath string, prob plan.Problem) error {
	if err := os.Setenv(plan.EnvCachePath, calPath); err != nil {
		return err
	}
	choice, _, err := plan.Auto(prob)
	if err != nil {
		return err
	}
	choice.Apply()
	p.prob, p.choice = prob, choice
	return nil
}

// allCores is the worker count of the all-core ops: GOMAXPROCS, the
// default the commands use when -workers is not given. The plan's own
// worker pick is reported but not used, because it follows calibration
// noise from one process to the next (see README.md).
func allCores() int { return runtime.GOMAXPROCS(0) }

func (p *planned) planLine() string {
	c := p.choice
	return fmt.Sprintf("engine=%s workers=%d kc=%d mc=%d chunks=%d",
		c.Engine, c.Workers, c.GemmKC, c.GemmMC, c.Chunks)
}

func cube(side, order int) []int {
	dims := make([]int, order)
	for i := range dims {
		dims[i] = side
	}
	return dims
}

// ---- cp-dense: sequential CP-ALS on a dense 128^3 tensor ----

type cpDense struct {
	planned
	x     *tensor.Dense
	seed  int64
	model *cpals.Model
}

func newCPDense(seed int64) (bench, error) {
	inst, err := workload.Generate(workload.Spec{Dims: cube(cpSide, 3), R: cpRank, Seed: seed, Noise: noise})
	if err != nil {
		return nil, err
	}
	return &cpDense{x: inst.X, seed: seed}, nil
}

func (w *cpDense) setup(calPath string) error {
	prob := plan.Problem{Dims: w.x.Dims(), R: cpRank, Mode: plan.AllModes, Reuses: cpSweeps}
	if err := w.plan(calPath, prob); err != nil {
		return err
	}
	return w.op(allCores())
}

func (w *cpDense) opts(workers int) cpals.Options {
	return cpals.Options{R: cpRank, MaxIters: cpSweeps, Tol: noConvergence, Seed: w.seed + 100, Workers: workers}
}

func (w *cpDense) op(workers int) error {
	var err error
	if w.choice.Engine == "tree" {
		w.model, _, _, err = cpals.DecomposeTree(w.x, w.opts(workers))
	} else {
		w.model, _, err = cpals.Decompose(w.x, w.opts(workers))
	}
	return err
}

func (w *cpDense) result() outcome {
	d := newDigest()
	d.matrices(w.model.Factors)
	d.floats([]float64{w.model.Fit})
	return outcome{digest: d.sum(), fit: w.model.Fit}
}

// verify runs one planned all-modes MTTKRP of the final factors and
// compares every mode with the Definition 2.1 oracle seq.Ref.
func (w *cpDense) verify() error {
	eng, ok := plan.Lookup(w.choice.Engine)
	if !ok {
		return fmt.Errorf("unknown engine %q", w.choice.Engine)
	}
	inst := &plan.Instance{X: w.x, Factors: w.model.Factors}
	if err := eng.Prepare(w.prob, inst); err != nil {
		return err
	}
	res := &plan.Result{}
	eng.Run(w.prob, inst, res, allCores())
	for n := range w.model.Factors {
		if e := relErr(res.All[n], seq.Ref(w.x, w.model.Factors, n)); !(e <= 1e-10) {
			return fmt.Errorf("mode-%d MTTKRP differs from seq.Ref by %.3g relative", n, e)
		}
	}
	return nil
}

// ---- tucker-hooi: HOSVD + HOOI on a dense 32^4 tensor ----

type tuckerBench struct {
	planned
	x     *tensor.Dense
	ranks []int
	model *tucker.Model
}

func newTucker(seed int64) (bench, error) {
	dims := cube(tuckerSide, tuckerOrder)
	ranks := cube(tuckerRank, tuckerOrder)
	factors, err := tucker.InitFactors(dims, ranks, seed)
	if err != nil {
		return nil, err
	}
	truth := &tucker.Model{Core: tensor.RandomDense(seed+1, ranks...), Factors: factors}
	x := truth.Reconstruct()
	tensor.AddNoise(x, seed+2, noise)
	return &tuckerBench{x: x, ranks: ranks}, nil
}

func (w *tuckerBench) setup(calPath string) error {
	// As cmd/tucker plans it: a TTM-chain problem amortized over every
	// chain of the run.
	prob := plan.Problem{Dims: w.x.Dims(), R: tuckerRank, Mode: plan.AllModes,
		Ranks: w.ranks, Reuses: tuckerSweeps * (tuckerOrder + 1)}
	if err := w.plan(calPath, prob); err != nil {
		return err
	}
	return w.op(allCores())
}

func (w *tuckerBench) op(workers int) error {
	var err error
	w.model, _, err = tucker.Decompose(w.x, tucker.Options{Ranks: w.ranks, MaxIters: tuckerSweeps,
		Tol: noConvergence, Workers: workers})
	return err
}

func (w *tuckerBench) result() outcome {
	d := newDigest()
	d.matrices(w.model.Factors)
	d.floats(w.model.Core.Data())
	d.floats([]float64{w.model.Fit})
	return outcome{digest: d.sum(), fit: w.model.Fit}
}

// verify recomputes the core from the final factors with the scalar
// TTM-chain oracle.
func (w *tuckerBench) verify() error {
	want := ttm.ChainScalar(w.x, w.model.Factors, -1)
	scale := 0.0
	for _, v := range want.Data() {
		scale = math.Max(scale, math.Abs(v))
	}
	if e := w.model.Core.MaxAbsDiff(want) / scale; !(e <= 1e-10) {
		return fmt.Errorf("core differs from ttm.ChainScalar by %.3g relative", e)
	}
	return nil
}

// ---- sparse-csf: planned all-modes sparse MTTKRP ----

type sparseBench struct {
	planned
	coo  *sparse.COO
	fs   []*tensor.Matrix
	eng  plan.Engine
	inst *plan.Instance
	res  *plan.Result
}

func newSparse(seed int64) (bench, error) {
	dims := cube(sparseSide, 3)
	return &sparseBench{
		coo: sparse.Random(seed, sparseNNZ, dims...),
		fs:  tensor.RandomFactors(seed+1, dims, sparseRank),
	}, nil
}

func (w *sparseBench) setup(calPath string) error {
	prob := plan.Problem{Dims: w.coo.Dims(), R: sparseRank, Mode: plan.AllModes,
		NNZ: int64(w.coo.NNZ()), Reuses: sparseReuses}
	if err := w.plan(calPath, prob); err != nil {
		return err
	}
	eng, ok := plan.Lookup(w.choice.Engine)
	if !ok {
		return fmt.Errorf("unknown engine %q", w.choice.Engine)
	}
	inst := &plan.Instance{COO: w.coo, Factors: w.fs}
	if err := eng.Prepare(prob, inst); err != nil {
		return err
	}
	w.eng, w.inst, w.res = eng, inst, &plan.Result{}
	return w.op(allCores())
}

func (w *sparseBench) op(workers int) error {
	w.eng.Run(w.prob, w.inst, w.res, workers)
	return nil
}

func (w *sparseBench) result() outcome {
	d := newDigest()
	d.matrices(w.res.All)
	return outcome{digest: d.sum()}
}

// verify compares every mode with the naive COO loop.
func (w *sparseBench) verify() error {
	for n := range w.fs {
		if e := relErr(w.res.All[n], sparse.MTTKRP(w.coo, w.fs, n)); !(e <= 1e-10) {
			return fmt.Errorf("mode-%d CSF result differs from the COO oracle by %.3g relative", n, e)
		}
	}
	return nil
}

// ---- cp-grid: CP-ALS on the simulated 2x2x2 processor grid ----

type gridBench struct {
	x    *tensor.Dense
	seed int64
	last *cpals.ParallelResult
}

func newGrid(seed int64) (bench, error) {
	inst, err := workload.Generate(workload.Spec{Dims: cube(gridSide, 3), R: gridRank, Seed: seed, Noise: noise})
	if err != nil {
		return nil, err
	}
	return &gridBench{x: inst.X, seed: seed}, nil
}

// setup has no planner step: cmd/cpals runs the grid solver without
// consulting plan.Auto, whose engines are shared-memory only.
func (w *gridBench) setup(string) error { return w.op(0) }

func (w *gridBench) planLine() string { return "" }

func (w *gridBench) opts() cpals.Options {
	return cpals.Options{R: gridRank, MaxIters: gridSweeps, Tol: noConvergence, Seed: w.seed + 100}
}

// op ignores workers: every simulated rank runs its local kernel on one
// goroutine, so GOMAXPROCS alone sets the parallelism.
func (w *gridBench) op(int) error {
	var err error
	w.last, err = cpals.DecomposeParallel(w.x, gridShape, w.opts())
	return err
}

func (w *gridBench) result() outcome {
	res := w.last
	out := outcome{fit: res.Model.Fit, mttkrpWords: res.MaxMTTKRPWords()}
	for r := range res.MTTKRPWords {
		if t := res.MTTKRPWords[r] + res.OtherWords[r]; t > out.commWords {
			out.commWords = t
		}
	}
	d := newDigest()
	d.matrices(res.Model.Factors)
	d.floats([]float64{res.Model.Fit})
	out.digest = d.sum()
	return out
}

// verify reruns the sequential solver with the same options; the fits
// must agree to 1e-8.
func (w *gridBench) verify() error {
	m, _, err := cpals.Decompose(w.x, w.opts())
	if err != nil {
		return err
	}
	if d := math.Abs(m.Fit - w.last.Model.Fit); !(d <= 1e-8) {
		return fmt.Errorf("grid fit %.12f differs from sequential %.12f by %.3g", w.last.Model.Fit, m.Fit, d)
	}
	return nil
}

// parBound is the Theorem 4.2/4.3 per-rank lower bound summed over
// the N MTTKRPs of every sweep of one decomposition.
func (w *gridBench) parBound() float64 {
	p := bounds.Problem{Dims: w.x.Dims(), R: gridRank}
	P := 1
	for _, s := range gridShape {
		P *= s
	}
	return bounds.ParBest(p, float64(P), 1, 1) * float64(gridSweeps*w.x.Order())
}
