package plan

// The planner: evaluate every supporting engine's cost model at every
// candidate worker count against the calibration and take the
// cheapest predicted wall-clock. All choices are deterministic:
// engines are scanned in registry order, worker candidates ascending,
// and ties keep the earlier candidate — so the same problem and
// calibration always produce the same plan.

import (
	"fmt"

	"repro/internal/linalg"
	"repro/internal/sparse"
)

// Plan picks the engine and worker count for a problem.
func Plan(p Problem, cal *Calibration) (Choice, error) {
	return plan(p, cal, "")
}

// PlanEngine plans with the engine fixed by name — the worker count
// is still chosen by the cost model. This backs the explicit
// -engine <name> command flags.
func PlanEngine(name string, p Problem, cal *Calibration) (Choice, error) {
	e, ok := Lookup(name)
	if !ok {
		return Choice{}, fmt.Errorf("plan: unknown engine %q (have %v)", name, Engines())
	}
	if err := p.validate(); err != nil {
		return Choice{}, err
	}
	if !e.Supports(p) {
		return Choice{}, fmt.Errorf("plan: engine %q does not support this problem (mode %d, dtype %s, nnz %d)",
			name, p.Mode, p.DType, p.NNZ)
	}
	return plan(p, cal, name)
}

func plan(p Problem, cal *Calibration, only string) (Choice, error) {
	if err := p.validate(); err != nil {
		return Choice{}, err
	}
	if cal == nil {
		cal = Default()
	}
	maxW := p.MaxWorkers
	if maxW < 1 {
		maxW = linalg.ResolveWorkers(0)
	}

	var (
		best        Engine
		bestWorkers int
		bestCost    Cost
	)
	for _, e := range engines {
		if !e.Supports(p) {
			continue
		}
		if only != "" && e.Name() != only {
			continue
		}
		for w := 1; w <= maxW; w++ {
			c := e.Cost(p, cal, w)
			if best == nil || c.Seconds < bestCost.Seconds {
				best, bestWorkers, bestCost = e, w, c
			}
		}
	}
	if best == nil {
		return Choice{}, fmt.Errorf("plan: no engine supports %s order-%d problem (mode %d, dtype %s)",
			map[bool]string{true: "sparse", false: "dense"}[p.Sparse()], len(p.Dims), p.Mode, p.DType)
	}

	kc, mc := linalg.BlockSizes()
	chunks := 0
	if p.Sparse() {
		chunks = sparse.Chunks(p.NNZ)
	}
	return Choice{
		Engine:    best.Name(),
		Workers:   bestWorkers,
		GemmKC:    kc,
		GemmMC:    mc,
		Chunks:    chunks,
		Predicted: bestCost,
		CalKey:    cal.Key,
	}, nil
}

// Auto loads (or measures) the calibration from the default cache path
// and plans. This is the one-call entry point the commands use.
func Auto(p Problem) (Choice, *Calibration, error) {
	cal := LoadOrMeasure(DefaultCachePath())
	choice, err := Plan(p, cal)
	return choice, cal, err
}
