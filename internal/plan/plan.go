// Package plan is the cost-model-driven engine planner: one Engine
// interface that every local MTTKRP engine implements (dense
// KRP-splitting kernel, f32 kernel, dimension tree, sparse CSF, sparse
// COO), and a planner that — given a problem descriptor — picks the
// engine and worker count by evaluating internal/costmodel streaming
// formulas against machine constants measured once at startup and
// cached to disk (see calibrate.go).
//
// Determinism contract: a Choice is a value. Planning and applying it
// write no state into any other package — the GEMM panel is a linalg
// constant and the CSF chunk count a function of the tree's own
// nonzero count — so every engine result is bitwise independent of
// the worker count and of every other caller, concurrent or earlier.
// Two runs of the same problem against the same calibration file
// produce identical plans.
package plan

import (
	"fmt"
	"strconv"

	"repro/internal/costmodel"
	"repro/internal/dimtree"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/sparse"
	"repro/internal/tensor"
	"repro/internal/ttm"
)

// DType selects the element storage of the planned computation.
type DType int

const (
	F64 DType = iota
	F32
)

func (d DType) String() string {
	if d == F32 {
		return "f32"
	}
	return "f64"
}

// WordBytes is the storage width the obs layer should charge per word.
func (d DType) WordBytes() int {
	if d == F32 {
		return 4
	}
	return 8
}

// AllModes as Problem.Mode requests a full sweep (one output per mode),
// the shape CP-ALS consumes.
const AllModes = -1

// Problem describes one MTTKRP workload for the planner: shape, rank,
// target mode (or AllModes), sparsity (NNZ == 0 means dense), element
// type, the worker-count ceiling, and how many times the plan will be
// reused (amortizes one-time preparation like the CSF build).
type Problem struct {
	Dims  []int
	R     int
	Mode  int
	NNZ   int64
	DType DType
	// MaxWorkers caps the planner's worker search; 0 means
	// linalg.Workers() (GOMAXPROCS).
	MaxWorkers int
	// Reuses is the expected number of passes over the same tensor with
	// the same plan (CP-ALS sets iterations x modes); 0 means 1.
	Reuses int
	// Ranks, when set (one per mode), turns the problem into a TTM
	// chain instead of an MTTKRP: contract every mode k down to
	// Ranks[k] columns, except the skipped mode — Mode names the mode
	// to skip (HOOI's projection), AllModes means skip none (the full
	// core chain). Only the dense f64 TTM engine serves these.
	Ranks []int
}

// TTMChain reports whether the problem is a TTM chain rather than an
// MTTKRP.
func (p Problem) TTMChain() bool { return len(p.Ranks) > 0 }

func (p Problem) validate() error {
	if len(p.Dims) < 2 {
		return fmt.Errorf("plan: order-%d problem (need >= 2 modes)", len(p.Dims))
	}
	for i, d := range p.Dims {
		if d < 1 {
			return fmt.Errorf("plan: dim %d = %d", i, d)
		}
	}
	if p.R < 1 {
		return fmt.Errorf("plan: rank %d", p.R)
	}
	if p.Mode != AllModes && (p.Mode < 0 || p.Mode >= len(p.Dims)) {
		return fmt.Errorf("plan: mode %d out of range for order %d", p.Mode, len(p.Dims))
	}
	if p.NNZ < 0 {
		return fmt.Errorf("plan: negative nnz %d", p.NNZ)
	}
	if p.TTMChain() {
		if len(p.Ranks) != len(p.Dims) {
			return fmt.Errorf("plan: %d chain ranks for order-%d problem", len(p.Ranks), len(p.Dims))
		}
		for i, r := range p.Ranks {
			if r < 1 {
				return fmt.Errorf("plan: chain rank %d = %d", i, r)
			}
		}
		if p.Sparse() {
			return fmt.Errorf("plan: TTM chains are dense-only (nnz = %d)", p.NNZ)
		}
	}
	return nil
}

// Sparse reports whether the problem is a sparse tensor.
func (p Problem) Sparse() bool { return p.NNZ > 0 }

// Elems is the dense element count of the shape.
func (p Problem) Elems() int64 {
	n := int64(1)
	for _, d := range p.Dims {
		n *= int64(d)
	}
	return n
}

// model converts the problem shape into a costmodel.Model.
func (p Problem) model() costmodel.Model {
	dims := make([]float64, len(p.Dims))
	for i, d := range p.Dims {
		dims[i] = float64(d)
	}
	return costmodel.Model{Dims: dims, R: float64(p.R)}
}

// reuses returns the effective pass count (>= 1).
func (p Problem) reuses() float64 {
	if p.Reuses < 1 {
		return 1
	}
	return float64(p.Reuses)
}

// Cost is a planner prediction: streamed words, floating-point
// operations, and the wall-clock seconds the calibration translates
// them into at the chosen worker count.
type Cost struct {
	Words   float64 `json:"words"`
	Flops   float64 `json:"flops"`
	Seconds float64 `json:"seconds"`
}

// Choice is the planner's output: which engine to run, at how many
// workers, and what the cost model predicted. GemmKC/GemmMC and Chunks
// report the tunables the engines derive on their own (the linalg
// panel constant and sparse.Chunks of the problem's nonzero count, 0
// when dense); no engine reads them.
type Choice struct {
	Engine    string `json:"engine"`
	Workers   int    `json:"workers"`
	GemmKC    int    `json:"gemm_kc"`
	GemmMC    int    `json:"gemm_mc"`
	Chunks    int    `json:"chunks"`
	Predicted Cost   `json:"predicted"`
	CalKey    string `json:"cal_key"`
}

// Apply records the decision as a flight-recorder instant so traces
// carry the plan that shaped them. It writes no package state.
func (c Choice) Apply() {
	flight.Rec().ColdInstant("plan", map[string]string{
		"engine":  c.Engine,
		"workers": strconv.Itoa(c.Workers),
		"gemm_kc": strconv.Itoa(c.GemmKC),
		"gemm_mc": strconv.Itoa(c.GemmMC),
		"chunks":  strconv.Itoa(c.Chunks),
		"cal_key": c.CalKey,
	})
}

// PlanInfo converts the choice into the obs report attachment.
func (c Choice) PlanInfo() *obs.PlanInfo {
	return &obs.PlanInfo{
		Engine:           c.Engine,
		Workers:          c.Workers,
		GemmKC:           c.GemmKC,
		GemmMC:           c.GemmMC,
		Chunks:           c.Chunks,
		PredictedWords:   c.Predicted.Words,
		PredictedSeconds: c.Predicted.Seconds,
		CalibrationKey:   c.CalKey,
	}
}

// Instance carries the operands an engine runs against. Dense engines
// read X (or X32), sparse engines read COO/CSF; Prepare fills any
// derived structure that is missing (e.g. the CSF build from COO, or
// the f32 mirrors of f64 operands).
type Instance struct {
	X         *tensor.Dense
	X32       *tensor.Dense32
	COO       *sparse.COO
	CSF       *sparse.CSF
	Factors   []*tensor.Matrix
	Factors32 []*tensor.Matrix32

	// Engine state built by Prepare and reused across Runs, so steady-
	// state passes stay allocation-free.
	kws     *kernel.Workspace
	sws     *sparse.Workspace
	tree    *dimtree.Engine
	treeRes *dimtree.Result
	tws     *ttm.Workspace
}

// Result receives an engine pass's output. Single-mode f64 runs fill
// B, single-mode f32 runs fill B32, all-modes runs fill All (or
// All32). Engines reuse whatever capacity is already present, so a
// Result recycled across iterations reaches zero steady-state
// allocations after the first pass.
type Result struct {
	B     *tensor.Matrix
	B32   *tensor.Matrix32
	All   []*tensor.Matrix
	All32 []*tensor.Matrix32
	// Y receives a TTM-chain pass's projected tensor.
	Y *tensor.Dense
}

// Engine is the planner's view of one MTTKRP implementation.
type Engine interface {
	// Name is the stable identifier used in plans, flags, and reports.
	Name() string
	// Supports reports whether the engine can run the problem at all
	// (dtype, sparsity, mode coverage).
	Supports(p Problem) bool
	// Cost predicts one full workload (all Reuses passes plus any
	// one-time preparation) at the given worker count.
	Cost(p Problem, cal *Calibration, workers int) Cost
	// Prepare builds any derived operand structure the engine needs
	// (CSF trees, f32 mirrors). It may allocate; Run must not.
	Prepare(p Problem, inst *Instance) error
	// Run executes one pass into res at the given worker count.
	Run(p Problem, inst *Instance, res *Result, workers int)
}

// engines is the registry, in deterministic preference order: when
// predicted costs tie, the earlier entry wins.
var engines = []Engine{
	fastEngine{},
	fast32Engine{},
	treeEngine{},
	csfEngine{},
	cooEngine{},
	ttmEngine{},
}

// Engines returns the registered engine names in registry order.
func Engines() []string {
	names := make([]string, len(engines))
	for i, e := range engines {
		names[i] = e.Name()
	}
	return names
}

// Lookup returns the registered engine with the given name.
func Lookup(name string) (Engine, bool) {
	for _, e := range engines {
		if e.Name() == name {
			return e, true
		}
	}
	return nil, false
}
