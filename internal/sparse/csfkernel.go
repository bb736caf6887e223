package sparse

// Sparse MTTKRP over the CSF fiber tree. The walk propagates two
// R-vectors per tree path: a top-down prefix (the Hadamard product of
// factor rows along the path above the node) and a bottom-up subtree
// sum S(node) = Σ_leaves val · ⊙ factor rows below the node. The
// mode-n MTTKRP row update is then
//
//	B[idx(node), :] += prefix(node) ⊙ S(node)
//
// at the tree level holding mode n, so every shared index prefix is
// multiplied once per fiber instead of once per nonzero — the sparse
// counterpart of the dense KRP-splitting reuse (Phan et al.), and the
// all-modes pass shares one set of subtree sums across every output
// (tree-ALS-style). Factor rows are read from packed row-major
// mirrors, so there are no At calls and no strided column walks in
// the hot loops.
//
// Parallel determinism: root fibers are tiled into a fixed number of
// nnz-balanced chunks (Chunks of the tree's own nonzero count, never
// derived from the worker count), each chunk accumulates into its own
// bucket in a fixed sequential order, and buckets merge through
// kernel.ReduceTree's fixed reduction tree — so the result is bitwise
// identical for every worker count and every other caller. When the
// output mode is the root, chunks own disjoint output rows and write
// one shared accumulator directly.

import (
	"fmt"

	"repro/internal/fanout"
	"repro/internal/kernel"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/simd"
	"repro/internal/tensor"
)

// Chunks is the accumulation-bucket count of the parallel CSF walk
// over a tree of nnz nonzeros: 32, doubling for every 4x of nonzeros
// from 2^21, at most maxChunks. Enough chunks that the largest is a
// small fraction of the work, few enough that the ReduceTree merge
// stays cheap. It is a function of the tree alone — never of the
// worker count or of any other caller — so chunk boundaries, bucket
// contents, and the merge order are identical no matter how many
// workers drain the queue, or what else runs in the process.
func Chunks(nnz int64) int {
	chunks := 32
	for ; nnz >= 1<<21 && chunks < maxChunks; nnz >>= 2 {
		chunks *= 2
	}
	return chunks
}

// maxChunks caps Chunks.
const maxChunks = 256

// csfWalker is one slot's traversal state: per-level output buckets
// for the chunk in hand plus recursion scratch for the subtree sums
// and prefixes (one R-vector per tree level each). The tree pointer is
// set for one pass only, so a pooled workspace does not pin the last
// tree it walked.
type csfWalker struct {
	t      *CSF
	R      int
	lout   int         // output level of the single-mode walk; < 0 selects the all-modes walk
	packed [][]float64 // per-level row-major factor mirrors (shared, read-only)
	outs   [][]float64 // per-level row-major output buckets for the current chunk
	sub    []float64   // N*R subtree-sum scratch; level lv uses [lv*R, (lv+1)*R)
	pre    []float64   // N*R prefix scratch, same indexing
}

// MTTKRP computes the mode-n matricized tensor times Khatri-Rao
// product with the default worker count, allocating the result.
func (t *CSF) MTTKRP(factors []*tensor.Matrix, n int) *tensor.Matrix {
	return t.MTTKRPWorkers(factors, n, 0)
}

// MTTKRPWorkers is MTTKRP with an explicit worker count (0 = default).
func (t *CSF) MTTKRPWorkers(factors []*tensor.Matrix, n, workers int) *tensor.Matrix {
	R := checkFactors(t, factors, n)
	b := tensor.NewMatrix(t.dims[n], R)
	t.MTTKRPInto(b, factors, n, workers, nil)
	return b
}

// MTTKRPInto computes b = X_(n) · KRP(factors ≠ n) over the fiber
// tree. factors[n] may be nil. workers <= 0 uses the default count; a
// nil ws borrows one from the pool. Steady state allocates nothing,
// and the result is bitwise identical for every worker count.
//
//repro:hotpath
func (t *CSF) MTTKRPInto(b *tensor.Matrix, factors []*tensor.Matrix, n, workers int, ws *Workspace) {
	mttkrpInto[float64](t, b, factors, n, workers, ws)
}

// matrix is a column-major matrix stored as T.
type matrix[T float32 | float64] interface {
	tensor.FactorMatrix
	Data() []T
}

// mttkrpInto is MTTKRPInto for either storage precision: factors widen
// to float64 in the row-major pack, every accumulation runs in float64,
// and the output rounds to T in the scatter.
//
//repro:hotpath
func mttkrpInto[T float32 | float64, M matrix[T]](t *CSF, b M, factors []M, n, workers int, ws *Workspace) {
	R := checkFactors(t, factors, n)
	if b.Rows() != t.dims[n] || b.Cols() != R {
		panic(fmt.Sprintf("sparse: MTTKRP output is %dx%d, want %dx%d",
			b.Rows(), b.Cols(), t.dims[n], R))
	}
	if ws == nil {
		ws = GetWorkspace()
		defer PutWorkspace(ws)
	}
	span := obs.Start(obs.PhaseSparse)
	defer span.Stop()
	lout := t.lvl[n]
	total := t.dims[n] * R
	workers, nbuf := t.pool(workers)
	ws.ensure(t, R, workers, nbuf, total)
	for lv := 0; lv < len(t.dims); lv++ {
		if lv == lout {
			continue
		}
		packRowMajor[T](ws.packed[lv], factors[t.perm[lv]], R)
	}
	t.kernelPass(R, lout, workers, nbuf, total, ws)
	t.addKernelCost(lout, R)
	scatterRowMajor[T](b, ws.acc[:total], R)
}

// AllModes computes the MTTKRP for every mode in one traversal,
// allocating the results (outs[k] is the mode-k MTTKRP).
func (t *CSF) AllModes(factors []*tensor.Matrix, workers int) []*tensor.Matrix {
	return allModes[float64](t, factors, workers, tensor.NewMatrix)
}

// allModes is AllModes for either storage precision, each output made
// by newMatrix.
func allModes[T float32 | float64, M matrix[T]](t *CSF, factors []M, workers int, newMatrix func(rows, cols int) M) []M {
	R := checkFactors(t, factors, tensor.AllModes)
	outs := make([]M, len(t.dims))
	for k := range outs {
		outs[k] = newMatrix(t.dims[k], R)
	}
	allModesInto[T](t, outs, factors, workers, nil)
	return outs
}

// AllModesInto computes the MTTKRP of every mode in a single pass
// over one fiber tree: the bottom-up subtree sums are computed once
// and combined with the top-down prefixes at every level, so the N
// outputs share all interior work (tree-ALS-style reuse). Same
// determinism and zero-allocation contract as MTTKRPInto.
//
//repro:hotpath
func (t *CSF) AllModesInto(outs []*tensor.Matrix, factors []*tensor.Matrix, workers int, ws *Workspace) {
	allModesInto[float64](t, outs, factors, workers, ws)
}

// allModesInto is AllModesInto for either storage precision.
//
//repro:hotpath
func allModesInto[T float32 | float64, M matrix[T]](t *CSF, outs []M, factors []M, workers int, ws *Workspace) {
	R := checkFactors(t, factors, tensor.AllModes)
	N := len(t.dims)
	if len(outs) != N {
		panic(fmt.Sprintf("sparse: got %d outputs for an order-%d tensor", len(outs), N))
	}
	for k, o := range outs {
		if o == nil || o.Rows() != t.dims[k] || o.Cols() != R {
			panic(fmt.Sprintf("sparse: all-modes output %d has wrong shape", k))
		}
	}
	if ws == nil {
		ws = GetWorkspace()
		defer PutWorkspace(ws)
	}
	span := obs.Start(obs.PhaseSparse)
	defer span.Stop()
	total := 0
	for lv := 0; lv < N; lv++ {
		total += t.dims[t.perm[lv]] * R
	}
	workers, nbuf := t.pool(workers)
	ws.ensure(t, R, workers, nbuf, total)
	for lv := 0; lv < N; lv++ {
		packRowMajor[T](ws.packed[lv], factors[t.perm[lv]], R)
	}
	t.kernelPass(R, -1, workers, nbuf, total, ws)
	t.addKernelCost(-1, R)
	off := 0
	for lv := 0; lv < N; lv++ {
		sz := t.dims[t.perm[lv]] * R
		scatterRowMajor[T](outs[t.perm[lv]], ws.acc[off:off+sz], R)
		off += sz
	}
}

// pool resolves the worker count and bucket count for a pass: the
// bucket count is Chunks(nnz) clamped to the root-fiber count (at
// least 1), and workers never exceed buckets.
func (t *CSF) pool(workers int) (int, int) {
	workers = linalg.ResolveWorkers(workers)
	nbuf := Chunks(int64(len(t.vals)))
	if f := len(t.idx[0]); nbuf > f {
		nbuf = f
	}
	if nbuf < 1 {
		nbuf = 1
	}
	if workers > nbuf {
		workers = nbuf
	}
	return workers, nbuf
}

// checkFactors is tensor.CheckFactors for the fiber tree, panicking
// on invalid arguments; n may be tensor.AllModes.
func checkFactors[M tensor.FactorMatrix](t *CSF, factors []M, n int) int {
	R, err := tensor.CheckFactors(t, factors, n)
	if err != nil {
		panic(err)
	}
	return R
}

// kernelPass runs one walk over the tree into ws.acc (row-major;
// the single-mode layout is In x R, the all-modes layout concatenates
// the per-level blocks). ws must be ensured and ws.packed filled for
// every participating level. lout < 0 selects the all-modes walk.
//
//repro:hotpath
func (t *CSF) kernelPass(R, lout, workers, nbuf, total int, ws *Workspace) {
	N := len(t.dims)
	acc := ws.acc[:total]
	for i := range acc {
		acc[i] = 0
	}
	// When the output mode is the root, chunks own disjoint root rows
	// and share one accumulator; otherwise each chunk past the first
	// gets a private bucket, merged below by ReduceTree.
	shared := lout == 0
	bufs := ws.bufs[:nbuf]
	bufs[0] = acc
	if shared {
		for c := 1; c < nbuf; c++ {
			bufs[c] = acc
		}
	} else {
		priv := ws.priv[:(nbuf-1)*total]
		clear(priv)
		for c := 1; c < nbuf; c++ {
			bufs[c] = priv[(c-1)*total : c*total]
		}
	}
	t.chunkBounds(ws, nbuf)
	for w := 0; w < workers; w++ {
		wk := &ws.walkers[w]
		wk.t = t
		wk.R = R
		wk.lout = lout
		wk.packed = ws.packed
		wk.sub = ws.stack[w*2*N*R : w*2*N*R+N*R]
		wk.pre = ws.stack[w*2*N*R+N*R : (w+1)*2*N*R]
	}
	fanout.Run(ws, nbuf, workers)
	for w := range ws.walkers[:workers] {
		ws.walkers[w].t = nil
	}
	if !shared {
		kernel.ReduceTree(bufs, workers)
	}
}

// chunkBounds fills ws.bounds with nbuf nnz-balanced chunk boundaries
// over the root fibers: boundary c is the first fiber whose cumulative
// leaf count reaches fraction c/nbuf of the nonzeros. The split
// depends only on the tree shape, never on the worker count.
//
//repro:hotpath
func (t *CSF) chunkBounds(ws *Workspace, nbuf int) {
	F := len(t.idx[0])
	nnz := int64(len(t.vals))
	ws.bounds[0] = 0
	for c := 1; c < nbuf; c++ {
		target := int32(nnz * int64(c) / int64(nbuf))
		lo, hi := int(ws.bounds[c-1]), F
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if t.rootLeaf[mid] < target {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		ws.bounds[c] = int32(lo)
	}
	ws.bounds[nbuf] = int32(F)
}

// Chunk makes the workspace the fanout task of the pass in flight:
// slot w walks chunk c with walker w. Bucket assignment is by chunk
// alone, so any number of slots produces bitwise-identical buckets.
//
//repro:hotpath
func (ws *Workspace) Chunk(c, slot int) {
	ws.walkers[slot].runChunk(ws, c)
}

// runChunk points the walker's per-level outputs at chunk c's bucket
// and walks the chunk's root-fiber range.
func (w *csfWalker) runChunk(ws *Workspace, c int) {
	t, R := w.t, w.R
	buf := ws.bufs[c]
	f0, f1 := int(ws.bounds[c]), int(ws.bounds[c+1])
	if w.lout < 0 {
		off := 0
		for lv := range w.outs {
			sz := t.dims[t.perm[lv]] * R
			w.outs[lv] = buf[off : off+sz]
			off += sz
		}
		w.runAll(f0, f1)
		return
	}
	w.outs[w.lout] = buf
	w.run(f0, f1)
}

// run processes root fibers [f0, f1) of the single-mode walk. With
// the output at the root there is no prefix: each fiber folds its
// subtree sum straight into its (chunk-owned) output row.
func (w *csfWalker) run(f0, f1 int) {
	t, R := w.t, w.R
	if w.lout == 0 {
		out := w.outs[0]
		idx0 := t.idx[0]
		for f := f0; f < f1; f++ {
			s := w.sub[:R]
			w.subtree(0, int32(f), s)
			i := int(idx0[f]) * R
			row := out[i : i+R]
			simd.Add(row, s)
		}
		return
	}
	for f := f0; f < f1; f++ {
		w.descend(0, int32(f), nil)
	}
}

// descend walks the levels above the output level, extending the
// running prefix (Hadamard product of factor rows along the path; nil
// means all-ones at the root) and, on reaching the output level,
// combining it with the bottom-up subtree sum.
func (w *csfWalker) descend(lv int, node int32, prefix []float64) {
	t, R := w.t, w.R
	if lv == w.lout {
		i := int(t.idx[lv][node]) * R
		row := w.outs[lv][i : i+R]
		if lv == len(t.dims)-1 {
			v := t.vals[node]
			if t.vals32 != nil {
				v = float64(t.vals32[node])
			}
			simd.Axpy(row, prefix, v)
			return
		}
		s := w.sub[lv*R : (lv+1)*R]
		w.subtree(lv, node, s)
		simd.MulAdd(row, prefix, s)
		return
	}
	i := int(t.idx[lv][node]) * R
	frow := w.packed[lv][i : i+R]
	cp := w.pre[(lv+1)*R : (lv+2)*R]
	if prefix == nil {
		copy(cp, frow)
	} else {
		simd.Mul(cp, prefix, frow)
	}
	for c := t.ptr[lv][node]; c < t.ptr[lv][node+1]; c++ {
		w.descend(lv+1, c, cp)
	}
}

// subtree writes S(node) into dst: the sum over leaves below the node
// of the leaf value times the Hadamard product of the factor rows of
// every level strictly below lv. Leaf children are folded inline so
// the innermost loop is a contiguous R-wide multiply-add.
func (w *csfWalker) subtree(lv int, node int32, dst []float64) {
	t, R := w.t, w.R
	for r := range dst {
		dst[r] = 0
	}
	c0, c1 := t.ptr[lv][node], t.ptr[lv][node+1]
	pk := w.packed[lv+1]
	if lv+1 == len(t.dims)-1 {
		leafIdx := t.idx[lv+1]
		// One batched call folds the whole fiber's leaves: the kernel
		// gathers pk rows by leaf index, so the per-leaf dispatch
		// overhead of an Axpy-per-leaf loop disappears (and R=16 keeps
		// dst in registers across the run on the AVX2 path).
		if v32 := t.vals32; v32 != nil {
			simd.AxpyRowsF32(dst, pk, leafIdx[c0:c1], v32[c0:c1])
		} else {
			simd.AxpyRows(dst, pk, leafIdx[c0:c1], t.vals[c0:c1])
		}
		return
	}
	cs := w.sub[(lv+1)*R : (lv+2)*R]
	cIdx := t.idx[lv+1]
	for c := c0; c < c1; c++ {
		w.subtree(lv+1, c, cs)
		i := int(cIdx[c]) * R
		simd.MulAdd(dst, pk[i:i+R], cs)
	}
}

// runAll processes root fibers [f0, f1) of the all-modes walk.
func (w *csfWalker) runAll(f0, f1 int) {
	for f := f0; f < f1; f++ {
		w.walkAll(0, int32(f), nil, w.sub[:w.R])
	}
}

// walkAll computes the subtree sum of node into dst while emitting
// the output contribution of every node it visits —
// out[lv][idx(node)] += prefix(node) ⊙ S(node) at each level — in one
// pass over the tree, sharing the subtree sums across all N outputs.
// A nil prefix means all-ones (the root).
func (w *csfWalker) walkAll(lv int, node int32, prefix, dst []float64) {
	t, R := w.t, w.R
	for r := range dst {
		dst[r] = 0
	}
	i := int(t.idx[lv][node]) * R
	frow := w.packed[lv][i : i+R]
	cp := w.pre[(lv+1)*R : (lv+2)*R]
	if prefix == nil {
		copy(cp, frow)
	} else {
		simd.Mul(cp, prefix, frow)
	}
	c0, c1 := t.ptr[lv][node], t.ptr[lv][node+1]
	pk := w.packed[lv+1]
	if lv+1 == len(t.dims)-1 {
		// One fused call folds the whole fiber's leaves: each leaf
		// value scales the prefix into its leaf-mode output row and
		// its factor row into this node's subtree sum (at R=16 the
		// AVX2 kernel keeps both R-vectors in registers for the run).
		leafIdx := t.idx[lv+1][c0:c1]
		if v32 := t.vals32; v32 != nil {
			simd.Axpy2RowsF32(w.outs[lv+1], cp, dst, pk, leafIdx, v32[c0:c1])
		} else {
			simd.Axpy2Rows(w.outs[lv+1], cp, dst, pk, leafIdx, t.vals[c0:c1])
		}
	} else {
		cs := w.sub[(lv+1)*R : (lv+2)*R]
		cIdx := t.idx[lv+1]
		for c := c0; c < c1; c++ {
			w.walkAll(lv+1, c, cp, cs)
			j := int(cIdx[c]) * R
			simd.MulAdd(dst, pk[j:j+R], cs)
		}
	}
	orow := w.outs[lv][i : i+R]
	if prefix == nil {
		simd.Add(orow, dst)
	} else {
		simd.MulAdd(orow, prefix, dst)
	}
}

// packRowMajor mirrors a column-major factor into a row-major float64
// slab so the walkers read each factor row as one contiguous R-vector;
// a float32 factor widens exactly.
//
//repro:hotpath
func packRowMajor[T float32 | float64, M matrix[T]](dst []float64, f M, R int) {
	I, data := f.Rows(), f.Data()
	obs.Copy(I * R)
	for r := 0; r < R; r++ {
		for i, v := range data[r*I : (r+1)*I] {
			dst[i*R+r] = float64(v)
		}
	}
}

// scatterRowMajor transposes a row-major float64 accumulator block
// into a column-major output matrix, rounding once to float32 for a
// float32 output.
//
//repro:hotpath
func scatterRowMajor[T float32 | float64, M matrix[T]](b M, src []float64, R int) {
	I, bd := b.Rows(), b.Data()
	obs.Copy(I * R)
	for r := 0; r < R; r++ {
		col := bd[r*I : (r+1)*I]
		for i := range col {
			col[i] = T(src[i*R+r])
		}
	}
}

// addKernelCost charges one kernel pass to the active obs collector
// at kernel-call granularity (see CSF.kernelCost); the totals depend
// only on the tree shape and rank, so they are identical for every
// worker count.
func (t *CSF) addKernelCost(lout, R int) { t.addKernelCostWorker(0, lout, R) }

// addKernelCostWorker charges the pass to a specific collector worker
// slab (used by the parallel ranks to attribute local compute).
func (t *CSF) addKernelCostWorker(w, lout, R int) {
	if !obs.Enabled() {
		return
	}
	reads, writes, flops := t.kernelCost(lout, R)
	obs.AddWorker(w, obs.WordsRead, reads)
	obs.AddWorker(w, obs.WordsWritten, writes)
	obs.AddWorker(w, obs.Flops, flops)
}
