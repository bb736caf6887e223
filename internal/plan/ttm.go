package plan

// ttmEngine adapts the HOOI sweep body of internal/ttm to the planner,
// so Tucker workloads run through the same calibrated engine and
// worker selection as the MTTKRP kernels. A pass over a Tucker problem
// is the sweep tucker.Decompose runs, with the factors fixed:
// ttm.TreeInto's mode projections, then the core as one TTM of the
// last one, which lands in Result.Y. ttm.SweepCost prices a pass to
// obs's word and flop.

import (
	"fmt"

	"repro/internal/tensor"
	"repro/internal/ttm"
)

type ttmEngine struct{}

func (ttmEngine) Name() string { return "ttm" }

func (ttmEngine) Supports(p Problem) bool {
	return p.Tucker() && !p.Sparse() && p.DType == F64
}

func (ttmEngine) Cost(p Problem, cal *Calibration, workers int) Cost {
	words, flops := ttm.SweepCost(p.Dims, p.Ranks)
	w, f := float64(words)*p.reuses(), float64(flops)*p.reuses()
	return Cost{Words: w, Flops: f, Seconds: cal.Seconds(w, f, workers)}
}

// hooiSweep is the ttm engine's per-instance state, built by Prepare
// so that Run allocates nothing: the projections TreeInto writes, the
// core, and the leaf, which keeps the factors and remembers the last
// projection.
type hooiSweep struct {
	ys         []*tensor.Dense
	core, last *tensor.Dense
	leaf       func(k int, y *tensor.Dense) error
}

func (ttmEngine) Prepare(p Problem, inst *Instance) error {
	if inst.X == nil {
		return fmt.Errorf("plan: engine ttm needs a dense f64 tensor")
	}
	if inst.tws == nil {
		inst.tws = ttm.NewWorkspace()
	}
	s := &hooiSweep{ys: ttm.ProjectionViews(p.Dims, p.Ranks), core: tensor.NewDense(p.Ranks...)}
	s.leaf = func(_ int, y *tensor.Dense) error {
		s.last = y
		return nil
	}
	inst.sweep = s
	return nil
}

//repro:hotpath
func (ttmEngine) Run(p Problem, inst *Instance, res *Result, workers int) {
	s := inst.sweep
	_ = ttm.TreeInto(s.ys, inst.X, inst.Factors, workers, inst.tws, s.leaf) // the leaf returns no error
	N := len(p.Dims)
	ttm.TTMInto(s.core, s.last, inst.Factors[N-1], N-1, workers)
	res.Y = s.core
}
