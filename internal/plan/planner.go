package plan

// The planner: evaluate every supporting engine's cost model at every
// candidate worker count against the calibration, take the cheapest
// predicted wall-clock, then derive block-size tunables for the pick.
// All choices are deterministic: engines are scanned in registry
// order, worker candidates ascending, and ties keep the earlier
// candidate — so the same problem and calibration always produce the
// same plan. Tunables (GEMM blocks, CSF chunk count) are functions of
// the shape and calibration only, never of the worker count, which
// preserves bitwise worker-count independence of the results.

import (
	"fmt"

	"repro/internal/linalg"
)

// SmallAllModesElems is the dense element count below which the
// planner forces the independent fast kernel for all-modes sweeps. On
// tiny tensors (e.g. 16^3) a whole sweep is tens of microseconds: the
// streaming cost model cannot resolve the real fast-vs-tree gap down
// there (it is dominated by setup, fan-out, and cache effects the
// model does not carry), so rather than trust sub-resolution
// predictions the planner pins the engine with no setup cost and no
// tree construction. BenchmarkSmallShapeCutover locks both sides of
// the cutover.
const SmallAllModesElems = 1 << 13

// Plan picks the engine, worker count, and tunables for a problem.
func Plan(p Problem, cal *Calibration) (Choice, error) {
	return plan(p, cal, "")
}

// PlanEngine plans with the engine fixed by name — the worker count
// and tunables are still chosen by the cost model. This backs the
// explicit -engine <name> command flags.
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
		if only == "" && p.forceFast() && e.Name() != "fast" {
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

	kc, mc := blocksFor(p, cal)
	return Choice{
		Engine:    best.Name(),
		Workers:   bestWorkers,
		GemmKC:    kc,
		GemmMC:    mc,
		Chunks:    chunksFor(p),
		Predicted: bestCost,
		CalKey:    cal.Key,
	}, nil
}

// forceFast is the small-shape cutover guard.
func (p Problem) forceFast() bool {
	return !p.Sparse() && p.DType == F64 && p.Mode == AllModes && !p.TTMChain() &&
		p.Elems() < SmallAllModesElems
}

// Auto loads (or measures) the calibration from the default cache path
// and plans. This is the one-call entry point the commands use.
func Auto(p Problem) (Choice, *Calibration, error) {
	cal := LoadOrMeasure(DefaultCachePath())
	choice, err := Plan(p, cal)
	return choice, cal, err
}

// blocksFor sizes the GEMM panel blocks for the problem's dominant
// dense contraction. Sparse problems keep linalg's defaults — their
// kernels never enter the blocked GEMMs. Every start is the default,
// never the blocks currently applied, so a plan does not depend on
// which plan ran before it.
func blocksFor(p Problem, cal *Calibration) (kc, mc int) {
	kc, mc = linalg.DefaultBlock, linalg.DefaultBlock
	if p.Sparse() {
		return kc, mc
	}
	if p.TTMChain() {
		// The chain's first (and largest) GEMM contracts the greedy
		// pick — the mode with the smallest Ranks/Dims ratio — against
		// the full tensor: (Elems / I_k0) x I_k0 x Ranks[k0].
		k0 := -1
		skip := p.chainSkip()
		for k := range p.Dims {
			if k == skip {
				continue
			}
			if k0 < 0 || p.Ranks[k]*p.Dims[k0] < p.Ranks[k0]*p.Dims[k] {
				k0 = k
			}
		}
		if k0 < 0 {
			return kc, mc
		}
		return PlanGEMM(int(p.Elems()/int64(p.Dims[k0])), p.Dims[k0], p.Ranks[k0], cal)
	}
	// The dominant GEMM of every dense engine pass has the shape
	// (rows of the kept mode) x (product of the streamed modes) x R:
	// for single-mode MTTKRP the kept mode is the output mode; for
	// all-modes sweeps the root contraction keeps the first half.
	m := p.Dims[0]
	if p.Mode != AllModes {
		m = p.Dims[p.Mode]
	}
	k := int(p.Elems() / int64(m))
	return PlanGEMM(m, k, p.R, cal)
}

// PlanGEMM sizes the panel blocks (KC over the shared dimension, MC
// over the output rows) for an m x k x n GEMM by minimizing the
// modeled slow-memory traffic
//
//	words(KC, MC) ~ m*k  +  k*n * ceil(m/MC)  +  2*m*n * ceil(k/KC)
//
// (stream A once; re-read each B panel per MC row block; read-modify-
// write C per KC panel) subject to the calibrated hot-panel budget
// KC*MC <= CacheWords. Candidates are powers of two, scanned in a
// fixed order with strict improvement, so the result is deterministic
// and — critically — independent of the worker count.
func PlanGEMM(m, k, n int, cal *Calibration) (kc, mc int) {
	if cal == nil {
		cal = Default()
	}
	budget := cal.CacheWords
	if budget < 1<<10 {
		budget = defaultCacheWords
	}
	kc, mc = linalg.DefaultBlock, linalg.DefaultBlock
	if m < 1 || k < 1 || n < 1 {
		return kc, mc
	}
	bestWords := gemmTrafficWords(m, k, n, kc, mc)
	for ckc := 16; ckc <= 4096; ckc *= 2 {
		for cmc := 16; cmc <= 4096; cmc *= 2 {
			if ckc*cmc > budget {
				continue
			}
			if w := gemmTrafficWords(m, k, n, ckc, cmc); w < bestWords {
				bestWords, kc, mc = w, ckc, cmc
			}
		}
	}
	return kc, mc
}

// gemmTrafficWords is the panel-blocking traffic model PlanGEMM
// minimizes.
func gemmTrafficWords(m, k, n, kc, mc int) float64 {
	mBlocks := float64((m + mc - 1) / mc)
	kBlocks := float64((k + kc - 1) / kc)
	return float64(m)*float64(k) + float64(k)*float64(n)*mBlocks + 2*float64(m)*float64(n)*kBlocks
}

// chunksFor sizes the sparse CSF work-queue chunk count from the
// nonzero count alone: enough chunks that the largest is a small
// fraction of the work (load balance), few enough that per-chunk
// fan-out stays negligible. Never a function of the worker count —
// the chunk partition fixes the accumulation grouping, and deriving
// it from workers would break bitwise worker independence.
func chunksFor(p Problem) int {
	if !p.Sparse() {
		return 0 // leave the package default untouched
	}
	chunks := 32
	for nnz := p.NNZ; nnz >= 1<<21 && chunks < 256; nnz >>= 2 {
		chunks *= 2
	}
	return chunks
}
