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

// TreeAllModesCost models the dimtree engine's all-modes sweep by
// walking the same balanced tree the engine builds: root contractions
// stream the tensor, partial contractions stream their (much smaller)
// partial, and every interior two-sided contraction pays the slab
// scratch fold.
func (m Model) TreeAllModesCost() EngineCost {
	N := m.N()
	if N == 2 {
		return m.treeRootCost(0, 1).Add(m.treeRootCost(1, 2))
	}
	mid := N / 2
	return m.treeBranchCost(0, mid).Add(m.treeBranchCost(mid, N))
}

// treeBranchCost is a root child holding modes [lo, hi) plus its
// subtree.
func (m Model) treeBranchCost(lo, hi int) EngineCost {
	c := m.treeRootCost(lo, hi)
	if hi-lo > 1 {
		c = c.Add(m.treeDescendCost(lo, hi))
	}
	return c
}

// treeDescendCost splits the partial holding [lo, hi) at its
// midpoint, mirroring dimtree.Engine.descend.
func (m Model) treeDescendCost(lo, hi int) EngineCost {
	mid := lo + (hi-lo)/2
	c := m.treePartCost(lo, hi, lo, mid)
	if mid-lo > 1 {
		c = c.Add(m.treeDescendCost(lo, mid))
	}
	c = c.Add(m.treePartCost(lo, hi, mid, hi))
	if hi-mid > 1 {
		c = c.Add(m.treeDescendCost(mid, hi))
	}
	return c
}

// treeRootCost is one contraction from the tensor keeping [lo, hi).
func (m Model) treeRootCost(lo, hi int) EngineCost {
	L := m.prodDims(0, lo)
	M := m.prodDims(lo, hi)
	Rt := m.prodDims(hi, m.N())
	return m.contractCost(L, M, Rt, lo > 0, hi < m.N(), L*M*Rt)
}

// treePartCost is one contraction of the partial holding [plo, phi)
// down to [klo, khi); the source is the partial's S*R block, not the
// tensor.
func (m Model) treePartCost(plo, phi, klo, khi int) EngineCost {
	Lp := m.prodDims(plo, klo)
	Mp := m.prodDims(klo, khi)
	Rtp := m.prodDims(khi, phi)
	c := m.contractCost(Lp, Mp, Rtp, klo > plo, khi < phi, Lp*Mp*Rtp*m.R)
	// The per-rank GEMV passes re-run the contraction once per rank
	// column but each streams only its own slab, so the source traffic
	// above is already per-pass exact; the arithmetic, though, is R
	// independent GEMVs — contractCost already counts 2*S*R.
	return c
}

// contractCost is the shared (L, M, Rt) contraction form: src is the
// streamed source volume in words (the tensor for roots, S*R for
// partials), dropLeft/dropRight say which KRP panels exist.
func (m Model) contractCost(L, M, Rt float64, dropLeft, dropRight bool, src float64) EngineCost {
	var c EngineCost
	if dropLeft {
		c.Words += 2 * L * m.R
		c.Flops += L * m.R
	}
	if dropRight {
		c.Words += 2 * Rt * m.R
		c.Flops += Rt * m.R
	}
	c.Words += src + M*m.R
	c.Flops += 2 * L * M * Rt * m.R
	if dropLeft && dropRight {
		c.Words += 2 * M * m.R * Rt
		c.Flops += 2 * M * m.R * Rt
	}
	if !dropLeft && !dropRight {
		// Nothing dropped: the empty product is a broadcast copy.
		c.Words += M * m.R
		c.Flops += M * m.R
	}
	return c
}

// TTMChainCost models one TTM-chain pass of the blocked engine
// (internal/ttm.ChainInto): every mode but skip (-1 skips none)
// contracts down to ranks[k] columns, in the engine's greedy order —
// ascending ranks[k]/Dims[k], ties toward the lower index. Each step
// is GEMM over the L x I x Rt slab stack of the current intermediate:
// the boundary modes (Rt = 1 or L = 1) are one GEMM, interior modes
// are Rt per-slab GEMMs. Word and flop counts reproduce obs.Gemm's
// operand accounting exactly, so the prediction matches the measured
// streaming totals of an uninstrumented chain to the word.
func (m Model) TTMChainCost(ranks []float64, skip int) EngineCost {
	N := m.N()
	if len(ranks) != N {
		panic("costmodel: TTMChainCost ranks length mismatch")
	}
	if skip < -1 || skip >= N {
		panic("costmodel: TTMChainCost skip out of range")
	}
	// Greedy order on the original shapes, mirroring the cross-
	// multiplied ratio compare and insertion-sort stability of ttm's
	// appendGreedyOrder.
	ord := make([]int, 0, N)
	for k := 0; k < N; k++ {
		if k != skip {
			ord = append(ord, k)
		}
	}
	for i := 1; i < len(ord); i++ {
		for j := i; j > 0 && ranks[ord[j]]*m.Dims[ord[j-1]] < ranks[ord[j-1]]*m.Dims[ord[j]]; j-- {
			ord[j], ord[j-1] = ord[j-1], ord[j]
		}
	}
	if len(ord) == 0 {
		// Empty chain: ChainInto degenerates to a copy (read + write).
		return EngineCost{Words: 2 * m.prodDims(0, N)}
	}
	dims := append([]float64(nil), m.Dims...)
	var c EngineCost
	for _, k := range ord {
		L, Rt := 1.0, 1.0
		for j := 0; j < k; j++ {
			L *= dims[j]
		}
		for j := k + 1; j < N; j++ {
			Rt *= dims[j]
		}
		I, r := dims[k], ranks[k]
		switch {
		case Rt == 1: //repro:bitwise Rt is a product of integer extents, exactly 1 iff all trailing modes are unit
			// One GemmNN: Y (L x r) = X (L x I) * U.
			c.Words += L*I + I*r + L*r
			c.Flops += 2 * L * I * r
		case L == 1: //repro:bitwise L is a product of integer extents, exactly 1 iff all leading modes are unit
			// One GemmTN: Y (r x Rt) = U^T * X (I x Rt).
			c.Words += I*r + I*Rt + r*Rt
			c.Flops += 2 * r * I * Rt
		default:
			// Rt per-slab GemmNNs; U streams once per slab.
			c.Words += Rt * (L*I + I*r + L*r)
			c.Flops += 2 * L * I * r * Rt
		}
		dims[k] = r
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
// and every level accumulates into its own output.
func (m Model) CSFAllModesCost(nnz float64) EngineCost {
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

// prodDims multiplies Dims[lo:hi].
func (m Model) prodDims(lo, hi int) float64 {
	p := 1.0
	for k := lo; k < hi; k++ {
		p *= m.Dims[k]
	}
	return p
}
