package costmodel

// Shared-memory engine cost forms. The distributed models above count
// per-processor sends against Eq. (14)/(18); these count the streaming
// traffic (words read + written through the memory hierarchy) and the
// arithmetic of the repository's local MTTKRP engines, in the same
// operand-counting discipline internal/obs uses at run time. The
// planner (internal/plan) evaluates them against calibrated machine
// constants to pick an engine, so the formulas only need to rank
// configurations correctly — they mirror each engine's documented
// loop structure rather than model caches exactly.

// EngineCost is the streaming-model prediction for one engine pass:
// words moved through memory and floating-point operations executed.
type EngineCost struct {
	Words float64
	Flops float64
}

// Add returns the component-wise sum of two costs.
func (c EngineCost) Add(d EngineCost) EngineCost {
	return EngineCost{Words: c.Words + d.Words, Flops: c.Flops + d.Flops}
}

// Scale returns the cost multiplied by s.
func (c EngineCost) Scale(s float64) EngineCost {
	return EngineCost{Words: c.Words * s, Flops: c.Flops * s}
}

// FastKernelCost models one kernel.Fast MTTKRP for mode n: the
// KRP-splitting engine streams the tensor once, builds the left/right
// partial KRP panels, and — for interior modes — writes and folds one
// I_n x R scratch panel per right slab.
func (m Model) FastKernelCost(mode int) EngineCost {
	if mode < 0 || mode >= m.N() {
		panic("costmodel: FastKernelCost mode out of range")
	}
	L, Rt := 1.0, 1.0
	for k := 0; k < mode; k++ {
		L *= m.Dims[k]
	}
	for k := mode + 1; k < m.N(); k++ {
		Rt *= m.Dims[k]
	}
	In := m.Dims[mode]
	I := L * In * Rt
	var c EngineCost
	// Partial KRP panels: written once, streamed once by the GEMMs.
	if mode > 0 {
		c.Words += 2 * L * m.R
		c.Flops += L * m.R
	}
	if mode < m.N()-1 {
		c.Words += 2 * Rt * m.R
		c.Flops += Rt * m.R
	}
	c.Words += I + In*m.R // tensor stream + output
	c.Flops += 2 * I * m.R
	if mode > 0 && mode < m.N()-1 {
		// Interior slabs: W_t written and read back per slab, plus the
		// KR-weighted fold into the accumulator.
		c.Words += 2 * In * m.R * Rt
		c.Flops += 2 * In * m.R * Rt
	}
	return c
}

// FastAllModesCost models an all-modes sweep as N independent
// kernel.Fast calls.
func (m Model) FastAllModesCost() EngineCost {
	var c EngineCost
	for n := range m.Dims {
		c = c.Add(m.FastKernelCost(n))
	}
	return c
}

// csfLevelNodes estimates the node count of CSF tree level lv for a
// uniformly random nonzero pattern: the fiber count saturates at the
// prefix-index space until nnz distinct prefixes exhaust it. perm[0]
// is the root mode; the remaining modes follow in ascending order,
// matching sparse.FromCOO.
func (m Model) csfLevelNodes(root, lv int, nnz float64) float64 {
	prefix := 1.0
	seen := 0
	for _, k := range m.csfPerm(root) {
		prefix *= m.Dims[k]
		seen++
		if seen > lv {
			break
		}
	}
	if nnz < prefix {
		return nnz
	}
	return prefix
}

// csfPerm is the mode ordering of a CSF tree rooted at root: root
// first, the rest ascending.
func (m Model) csfPerm(root int) []int {
	perm := make([]int, 0, m.N())
	perm = append(perm, root)
	for k := 0; k < m.N(); k++ {
		if k != root {
			perm = append(perm, k)
		}
	}
	return perm
}

// CSFCost models one CSF MTTKRP pass for the output mode on a tree
// rooted at that mode (lout = 0, the layout the parallel engine
// builds), mirroring (*CSF).kernelCost: each node extends a prefix
// Hadamard (R flops, one factor row) or folds a subtree sum (2R
// flops), leaves stream their values, and output rows accumulate
// read-modify-write.
func (m Model) CSFCost(nnz float64, mode int) EngineCost {
	var c EngineCost
	N := m.N()
	c.Words += nnz // leaf values
	for lv := 0; lv < N; lv++ {
		nodes := m.csfLevelNodes(mode, lv, nnz)
		switch {
		case lv == 0: // output level: read-modify-write one row per root node
			c.Words += 2 * nodes * m.R
			c.Flops += 2 * nodes * m.R
		case lv == N-1: // leaves fold their factor row into the subtree sum
			c.Words += nodes * m.R
			c.Flops += 2 * nodes * m.R
		default: // interior: factor row folded into the running subtree sum
			c.Words += nodes * m.R
			c.Flops += 2 * nodes * m.R
		}
	}
	return c
}

// CSFAllModesCost models the shared-subtree all-modes pass on one
// tree (rooted at mode 0): every node with children extends the
// prefix, every non-root node folds into its parent's subtree sum,
// and every level accumulates into its own output. The pass
// accumulates into one bucket of all N outputs per chunk, the chunk
// count (sparse.Chunks of the tree) clamped to the root fibers as the
// kernel clamps it; every bucket is zeroed, and the pairwise merge
// (kernel.ReduceTree) reads two buckets and writes one per add.
func (m Model) CSFAllModesCost(nnz float64, chunks int) EngineCost {
	var c EngineCost
	N := m.N()
	c.Words += nnz
	for lv := 0; lv < N; lv++ {
		nodes := m.csfLevelNodes(0, lv, nnz)
		if lv != N-1 {
			c.Words += nodes * m.R // prefix factor row
			c.Flops += nodes * m.R
		}
		if lv != 0 {
			c.Words += nodes * m.R // fold factor row
			c.Flops += 2 * nodes * m.R
		}
		c.Words += 2 * nodes * m.R // output row read-modify-write
		c.Flops += 2 * nodes * m.R
	}
	out := 0.0
	for _, d := range m.Dims {
		out += d * m.R
	}
	buckets := max(1, min(float64(chunks), m.csfLevelNodes(0, 0, nnz)))
	c.Words += buckets*out + 3*(buckets-1)*out
	c.Flops += (buckets - 1) * out
	return c
}

// COOCost models the naive coordinate-format accumulation loop: per
// nonzero, the entry (N index words + 1 value), one factor row per
// non-output mode, and a read-modify-write of the output row.
func (m Model) COOCost(nnz float64, mode int) EngineCost {
	if mode < 0 || mode >= m.N() {
		panic("costmodel: COOCost mode out of range")
	}
	N := float64(m.N())
	return EngineCost{
		Words: nnz * (N + 1 + (N-1)*m.R + 2*m.R),
		Flops: nnz * N * m.R,
	}
}
