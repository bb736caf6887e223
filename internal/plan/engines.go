package plan

// Engine adapters: thin shims that give every local MTTKRP
// implementation the planner's common Engine face. Each adapter's
// Cost mirrors its kernel's documented loop structure via the
// costmodel streaming forms; Prepare builds reusable state (f32
// mirrors, CSF trees, workspaces) so Run stays allocation-free in
// steady state. Output matrices are grown lazily on the first Run and
// reused afterwards, the same grow-only discipline the engines
// themselves follow.

import (
	"fmt"
	"math"

	"repro/internal/costmodel"
	"repro/internal/dimtree"
	"repro/internal/kernel"
	"repro/internal/sparse"
	"repro/internal/tensor"
)

// ensureB grows res.B to rows x cols if needed.
func ensureB(res *Result, rows, cols int) {
	if res.B == nil || res.B.Rows() != rows || res.B.Cols() != cols {
		res.B = tensor.NewMatrix(rows, cols) //repro:ignore hotpath-alloc first-call growth; steady state reuses res.B
	}
}

// ensureAll grows res.All to one matrix per mode.
func ensureAll(res *Result, dims []int, R int) {
	if len(res.All) != len(dims) {
		res.All = make([]*tensor.Matrix, len(dims)) //repro:ignore hotpath-alloc first-call growth; steady state reuses res.All
	}
	for n, d := range dims {
		if res.All[n] == nil || res.All[n].Rows() != d || res.All[n].Cols() != R {
			res.All[n] = tensor.NewMatrix(d, R) //repro:ignore hotpath-alloc first-call growth; steady state reuses res.All
		}
	}
}

// ensureB32 grows res.B32 to rows x cols if needed.
func ensureB32(res *Result, rows, cols int) {
	if res.B32 == nil || res.B32.Rows() != rows || res.B32.Cols() != cols {
		res.B32 = tensor.NewMatrix32(rows, cols) //repro:ignore hotpath-alloc first-call growth; steady state reuses res.B32
	}
}

// ensureAll32 grows res.All32 to one matrix per mode.
func ensureAll32(res *Result, dims []int, R int) {
	if len(res.All32) != len(dims) {
		res.All32 = make([]*tensor.Matrix32, len(dims)) //repro:ignore hotpath-alloc first-call growth; steady state reuses res.All32
	}
	for n, d := range dims {
		if res.All32[n] == nil || res.All32[n].Rows() != d || res.All32[n].Cols() != R {
			res.All32[n] = tensor.NewMatrix32(d, R) //repro:ignore hotpath-alloc first-call growth; steady state reuses res.All32
		}
	}
}

// fastEngine wraps kernel.Fast, the KRP-splitting dense f64 kernel.
// An all-modes request runs N independent passes.
type fastEngine struct{}

func (fastEngine) Name() string { return "fast" }

func (fastEngine) Supports(p Problem) bool {
	return !p.Sparse() && p.DType == F64 && !p.Tucker()
}

func (fastEngine) Cost(p Problem, cal *Calibration, workers int) Cost {
	m := p.model()
	var ec costmodel.EngineCost
	if p.Mode == AllModes {
		ec = m.FastAllModesCost()
	} else {
		ec = m.FastKernelCost(p.Mode)
	}
	ec = ec.Scale(p.reuses())
	return Cost{Words: ec.Words, Flops: ec.Flops, Seconds: cal.Seconds(ec.Words, ec.Flops, workers)}
}

func (fastEngine) Prepare(p Problem, inst *Instance) error {
	if inst.X == nil {
		return fmt.Errorf("plan: engine fast needs a dense f64 tensor")
	}
	if inst.kws == nil {
		inst.kws = new(kernel.Workspace)
	}
	return nil
}

//repro:hotpath
func (fastEngine) Run(p Problem, inst *Instance, res *Result, workers int) {
	if p.Mode == AllModes {
		ensureAll(res, p.Dims, p.R)
		for n := range p.Dims {
			kernel.FastInto(res.All[n], inst.X, inst.Factors, n, workers, inst.kws)
		}
		return
	}
	ensureB(res, p.Dims[p.Mode], p.R)
	kernel.FastInto(res.B, inst.X, inst.Factors, p.Mode, workers, inst.kws)
}

// fast32Engine is the float32-storage variant of kernel.Fast. The cost
// model halves the word traffic (4-byte elements through the same
// streaming structure) and keeps the flop count: accumulation is still
// float64.
type fast32Engine struct{}

func (fast32Engine) Name() string { return "fast32" }

func (fast32Engine) Supports(p Problem) bool {
	return !p.Sparse() && p.DType == F32 && !p.Tucker()
}

func (fast32Engine) Cost(p Problem, cal *Calibration, workers int) Cost {
	m := p.model()
	var ec costmodel.EngineCost
	if p.Mode == AllModes {
		ec = m.FastAllModesCost()
	} else {
		ec = m.FastKernelCost(p.Mode)
	}
	ec = ec.Scale(p.reuses())
	words := ec.Words / 2 // float32 storage: half the bytes through the same loop structure
	return Cost{Words: words, Flops: ec.Flops, Seconds: cal.Seconds(words, ec.Flops, workers)}
}

func (fast32Engine) Prepare(p Problem, inst *Instance) error {
	if inst.X32 == nil {
		if inst.X == nil {
			return fmt.Errorf("plan: engine fast32 needs a dense tensor")
		}
		inst.X32 = tensor.Dense32FromDense(inst.X)
	}
	if inst.Factors32 == nil && inst.Factors != nil {
		inst.Factors32 = make([]*tensor.Matrix32, len(inst.Factors))
		for k, f := range inst.Factors {
			inst.Factors32[k] = tensor.Matrix32FromMatrix(f)
		}
	}
	if inst.kws == nil {
		inst.kws = new(kernel.Workspace)
	}
	return nil
}

//repro:hotpath
func (fast32Engine) Run(p Problem, inst *Instance, res *Result, workers int) {
	if p.Mode == AllModes {
		ensureAll32(res, p.Dims, p.R)
		for n := range p.Dims {
			kernel.Fast32Into(res.All32[n], inst.X32, inst.Factors32, n, workers, inst.kws)
		}
		return
	}
	ensureB32(res, p.Dims[p.Mode], p.R)
	kernel.Fast32Into(res.B32, inst.X32, inst.Factors32, p.Mode, workers, inst.kws)
}

// treeEngine wraps the dimension-tree engine: the all-modes sweep that
// reuses partial contractions across modes. It declines single-mode
// requests (a tree pays for itself only when every mode is needed).
type treeEngine struct{}

func (treeEngine) Name() string { return "tree" }

func (treeEngine) Supports(p Problem) bool {
	return !p.Sparse() && p.DType == F64 && p.Mode == AllModes && !p.Tucker()
}

func (treeEngine) Cost(p Problem, cal *Calibration, workers int) Cost {
	ec := dimtree.AllModesCost(p.Dims, p.R).Scale(p.reuses())
	return Cost{Words: ec.Words, Flops: ec.Flops, Seconds: cal.Seconds(ec.Words, ec.Flops, workers)}
}

func (treeEngine) Prepare(p Problem, inst *Instance) error {
	if inst.X == nil {
		return fmt.Errorf("plan: engine tree needs a dense f64 tensor")
	}
	if inst.tree == nil {
		inst.tree = dimtree.NewEngine(0)
	}
	if inst.treeRes == nil {
		inst.treeRes = new(dimtree.Result)
	}
	return nil
}

//repro:hotpath
func (treeEngine) Run(p Problem, inst *Instance, res *Result, workers int) {
	inst.tree.Workers = workers
	inst.tree.AllModesInto(inst.treeRes, inst.X, inst.Factors)
	res.All = inst.treeRes.B
}

// csfEngine wraps the compressed-sparse-fiber kernels. Its cost charges
// the one-time tree build (sort + compression) against the problem's
// Reuses, which is how the planner learns that CSF loses to COO for a
// single pass over few nonzeros but wins any iterated workload.
type csfEngine struct{}

func (csfEngine) Name() string { return "csf" }

func (csfEngine) Supports(p Problem) bool { return p.Sparse() }

func (csfEngine) Cost(p Problem, cal *Calibration, workers int) Cost {
	m := p.model()
	nnz := float64(p.NNZ)
	var pass costmodel.EngineCost
	if p.Mode == AllModes {
		pass = m.CSFAllModesCost(nnz, sparse.Chunks(p.NNZ))
	} else {
		pass = m.CSFCost(nnz, p.Mode)
	}
	total := pass.Scale(p.reuses())
	if p.NNZ > 1 {
		// One-time build: stream the entries twice (sort + compress) and
		// pay comparison work ~ nnz log2 nnz.
		N := float64(len(p.Dims))
		total = total.Add(costmodel.EngineCost{
			Words: 2 * nnz * (N + 1),
			Flops: nnz * math.Log2(nnz),
		})
	}
	if p.DType == F32 {
		total.Words /= 2
	}
	return Cost{Words: total.Words, Flops: total.Flops, Seconds: cal.Seconds(total.Words, total.Flops, workers)}
}

func (csfEngine) Prepare(p Problem, inst *Instance) error {
	if inst.CSF == nil {
		if inst.COO == nil {
			return fmt.Errorf("plan: engine csf needs a sparse tensor")
		}
		root := 0
		if p.Mode != AllModes {
			root = p.Mode
		}
		inst.CSF = sparse.FromCOO(inst.COO, root)
	}
	if p.DType == F32 {
		inst.CSF.EnableF32Values()
		if inst.Factors32 == nil && inst.Factors != nil {
			inst.Factors32 = make([]*tensor.Matrix32, len(inst.Factors))
			for k, f := range inst.Factors {
				inst.Factors32[k] = tensor.Matrix32FromMatrix(f)
			}
		}
	}
	if inst.sws == nil {
		inst.sws = sparse.NewWorkspace()
	}
	return nil
}

//repro:hotpath
func (csfEngine) Run(p Problem, inst *Instance, res *Result, workers int) {
	if p.DType == F32 {
		if p.Mode == AllModes {
			ensureAll32(res, p.Dims, p.R)
			inst.CSF.AllModesInto32(res.All32, inst.Factors32, workers, inst.sws)
			return
		}
		ensureB32(res, p.Dims[p.Mode], p.R)
		inst.CSF.MTTKRPInto32(res.B32, inst.Factors32, p.Mode, workers, inst.sws)
		return
	}
	if p.Mode == AllModes {
		ensureAll(res, p.Dims, p.R)
		inst.CSF.AllModesInto(res.All, inst.Factors, workers, inst.sws)
		return
	}
	ensureB(res, p.Dims[p.Mode], p.R)
	inst.CSF.MTTKRPInto(res.B, inst.Factors, p.Mode, workers, inst.sws)
}

// cooEngine is the naive coordinate-format accumulation loop: no build
// step, no reuse across modes, sequential only. It exists as the
// baseline the cost model can fall back to for tiny single-pass
// problems where even one CSF sort costs more than the whole MTTKRP.
type cooEngine struct{}

func (cooEngine) Name() string { return "coo" }

func (cooEngine) Supports(p Problem) bool {
	return p.Sparse() && p.DType == F64
}

func (cooEngine) Cost(p Problem, cal *Calibration, workers int) Cost {
	m := p.model()
	nnz := float64(p.NNZ)
	var ec costmodel.EngineCost
	if p.Mode == AllModes {
		for n := range p.Dims {
			ec = ec.Add(m.COOCost(nnz, n))
		}
	} else {
		ec = m.COOCost(nnz, p.Mode)
	}
	ec = ec.Scale(p.reuses())
	// The COO loop is sequential; extra workers buy nothing.
	return Cost{Words: ec.Words, Flops: ec.Flops, Seconds: cal.Seconds(ec.Words, ec.Flops, 1)}
}

func (cooEngine) Prepare(p Problem, inst *Instance) error {
	if inst.COO == nil {
		return fmt.Errorf("plan: engine coo needs a sparse tensor in coordinate form")
	}
	return nil
}

// Run executes the naive loop. sparse.MTTKRP allocates its output per
// call; that is acceptable here because the planner only selects coo
// for single-pass problems, never iterated steady-state loops.
func (cooEngine) Run(p Problem, inst *Instance, res *Result, workers int) {
	if p.Mode == AllModes {
		if len(res.All) != len(p.Dims) {
			res.All = make([]*tensor.Matrix, len(p.Dims))
		}
		for n := range p.Dims {
			res.All[n] = sparse.MTTKRP(inst.COO, inst.Factors, n)
		}
		return
	}
	res.B = sparse.MTTKRP(inst.COO, inst.Factors, p.Mode)
}
