package ttm

import (
	"fmt"

	"repro/internal/tensor"
)

// TreeInto computes, for k = 0..N-1 in ascending order, the projection
// of x on every mode but k — x contracted on every other mode j with
// us[j] — and calls leaf(k, y) as soon as y holds it. The N
// projections share their partial contractions on a dimension tree of
// contiguous mode ranges, the structure internal/dimtree walks for CP
// (Phan et al., the paper's reference [13]):
//
//   - the node for the modes [lo, hi) holds x contracted on every mode
//     outside the range; the root [0, N) is x itself;
//   - an inner node either splits at a mode m into the children
//     [lo, m) and [m, hi), or computes each of its leaves straight
//     from its own partial, as a chain over the rest of the range;
//   - a child is the node with the node's other modes contracted (in
//     appendGreedyOrder's order over them), and the walk finishes each
//     child's subtree before it builds the next child;
//   - the leaf [k, k+1) is written into ys[k].
//
// leaf may replace us[k] with a matrix of the same shape — HOOI's
// factor update — and every contraction after it reads the new one.
// Mode k's projection therefore contracts the modes below k with their
// replaced matrices and the modes above k with the ones passed in,
// exactly the factor versions of a HOOI sweep's per-mode chains.
//
// The tree's shape comes from the operand shapes alone, x's extents
// and the matrices' column counts: the one with the fewest
// multiply-adds, ties going to the balanced split m = lo + (hi-lo)/2
// that dimtree uses. A split saves work only when both halves'
// contractions shrink x comparably: a child that keeps its sibling's
// non-shrinking modes uncontracted repeats their cost below it.
// Because computing every leaf straight from the root is the per-mode
// loop itself, the walk never costs more multiply-adds than the N
// chains. At 32^4, ranks 8 it is the balanced tree, and the
// projections take 46.1 instead of 88.1 MFLOP.
//
// ys[k] must have extent us[j].Cols() on every mode j != k and x's
// extent on k, and must not alias x. For an order-1 tensor the root is
// the leaf, and y is x itself. The shapes, the plan and the partials
// live in ws's grow-only buffers, so a steady-state walk allocates
// nothing beyond what leaf does; leaf may pass ws to every call but
// TreeInto. A non-nil error from leaf stops the walk and is returned.
// The projections are bitwise identical for every worker count, and
// differ from ChainScalar's by rounding only.
//
//repro:hotpath
func TreeInto(ys []*tensor.Dense, x *tensor.Dense, us []*tensor.Matrix, workers int, ws *Workspace, leaf func(k int, y *tensor.Dense) error) error {
	N := x.Order()
	checkChain(x, us, -1)
	if len(ys) != N {
		panic(fmt.Sprintf("ttm: %d projections for order-%d tensor", len(ys), N))
	}
	for k, y := range ys {
		checkOut(y, x, us, k)
	}
	if N == 1 {
		return leaf(0, x)
	}
	ws.shape = growInts(ws.shape, N)
	ws.ranks = growInts(ws.ranks, N)
	for k, u := range us {
		ws.shape[k], ws.ranks[k] = x.Dim(k), u.Cols()
	}
	ws.sp = 0
	w := treeWalk{ys: ys, x: x, us: us, workers: workers, ws: ws, leaf: leaf}
	w.plan()
	return w.descend(x.Data(), 0, N)
}

// ProjectionViews returns TreeInto's projections for a tensor of
// extents dims and matrices of ranks[k] columns — extent dims[k] on
// mode k and ranks[j] on every other mode j — as views of one buffer
// sized for the largest. A HOOI leaf is done with its projection once
// it returns, and the walk writes each projection only after the leaf
// before it, so the views may share storage; a leaf that keeps its
// projection past the next leaf must copy it.
func ProjectionViews(dims, ranks []int) []*tensor.Dense {
	shapes := make([][]int, len(dims))
	sizes := make([]int, len(dims))
	size := 0
	for k := range dims {
		shapes[k] = append([]int(nil), ranks...)
		shapes[k][k] = dims[k]
		sizes[k] = 1
		for _, d := range shapes[k] {
			sizes[k] *= d
		}
		size = max(size, sizes[k])
	}
	buf := make([]float64, size)
	out := make([]*tensor.Dense, len(dims))
	for k, sh := range shapes {
		out[k] = tensor.NewDenseFromData(buf[:sizes[k]], sh...)
	}
	return out
}

// SweepCost returns the words and flops that obs records for one HOOI
// sweep body over a tensor of extents dims with factors of ranks[k]
// columns: TreeInto's planned walk, then the core as one TTM of the
// last leaf's projection on mode N-1 — Decompose's sweep without its
// Grams and eigensolves. Each contraction step counts the GEMMs
// ttmSlices runs as obs.Gemm does: one GEMM at a boundary mode, one
// per slab between. It panics unless every rank lies in [1, dims[k]].
func SweepCost(dims, ranks []int) (words, flops int64) {
	N := len(dims)
	if len(ranks) != N || N == 0 {
		panic(fmt.Sprintf("ttm: %d ranks for order-%d tensor", len(ranks), N))
	}
	for k, r := range ranks {
		if r < 1 || r > dims[k] {
			panic(fmt.Sprintf("ttm: rank %d for mode %d of extent %d", r, k, dims[k]))
		}
	}
	ws := GetWorkspace()
	defer PutWorkspace(ws)
	ws.shape = append(ws.shape[:0], dims...)
	ws.ranks = append(ws.ranks[:0], ranks...)
	var c gemmCount
	w := treeWalk{ws: ws, count: &c}
	if N > 1 {
		w.plan()
		_ = w.descend(nil, 0, N) // a priced walk visits no leaf
	}
	w.nodeDims(N-1, N)
	c.step(ws.dims, N-1, ranks[N-1])
	return c.words, c.flops
}

// leafChains marks a node of the plan whose leaves are contracted
// straight from its partial.
const leafChains = -1

// treeWalk carries one TreeInto traversal's fixed arguments. Its plan
// reads ws's shapes only, so SweepCost plans a walk with ws alone and
// walks it with count set, pricing the contractions instead of
// running them.
type treeWalk struct {
	ys      []*tensor.Dense
	x       *tensor.Dense
	us      []*tensor.Matrix
	workers int
	ws      *Workspace
	leaf    func(k int, y *tensor.Dense) error
	count   *gemmCount
}

// node indexes the node [lo, hi) in ws's plan tables.
func (w *treeWalk) node(lo, hi int) int { return lo*len(w.ws.shape) + hi - 1 }

// plan fills ws.split, for every node [lo, hi) of two or more modes,
// with the split mode m or leafChains, whichever gives the subtree the
// fewest multiply-adds (ws.cost), by dynamic programming from the
// smallest ranges up. A node's partial has the same extents however
// the walk reached it, so each range is priced once. Ties keep the
// balanced split, then the lower m, then a split over leafChains.
func (w *treeWalk) plan() {
	ws := w.ws
	N := len(ws.shape)
	ws.cost = growInts(ws.cost, N*N)
	ws.split = growInts(ws.split, N*N)
	ws.ord = growInts(ws.ord, N)
	for k := 0; k < N; k++ {
		ws.cost[w.node(k, k+1)] = 0
	}
	for n := 2; n <= N; n++ {
		for lo, hi := 0, n; hi <= N; lo, hi = lo+1, hi+1 {
			size := w.nodeDims(lo, hi)
			mid := lo + n/2
			best, split := w.splitCost(size, lo, hi, mid), mid
			for m := lo + 1; m < hi; m++ {
				if c := w.splitCost(size, lo, hi, m); c < best {
					best, split = c, m
				}
			}
			chains := 0
			for k := lo; k < hi; k++ {
				chains += w.stepsCost(size, w.order(lo, hi, k, k+1))
			}
			if chains < best {
				best, split = chains, leafChains
			}
			ws.cost[w.node(lo, hi)], ws.split[w.node(lo, hi)] = best, split
		}
	}
}

// order returns the greedy order of the modes of [lo, hi) outside
// [clo, chi): the steps of the node [lo, hi)'s contraction into that
// child, in ws.ord.
func (w *treeWalk) order(lo, hi, clo, chi int) []int {
	return appendGreedyOrder(w.ws.ord, w.ws.shape, w.ws.ranks, lo, hi, clo, chi)
}

// splitCost prices splitting the node [lo, hi), of size elements, at
// m: both children's contractions plus their subtrees.
func (w *treeWalk) splitCost(size, lo, hi, m int) int {
	c := w.stepsCost(size, w.order(lo, hi, lo, m))
	c += w.stepsCost(size, w.order(lo, hi, m, hi))
	return c + w.ws.cost[w.node(lo, m)] + w.ws.cost[w.node(m, hi)]
}

// stepsCost returns the multiply-adds of contracting steps, in order,
// from a partial of size elements that holds x's extent on each of
// them: one per element of the input per output column.
func (w *treeWalk) stepsCost(size int, steps []int) int {
	c := 0
	for _, k := range steps {
		r := w.ws.ranks[k]
		c += size * r
		size = size / w.ws.shape[k] * r
	}
	return c
}

// descend visits the children of the node [lo, hi), whose partial is
// part, in ascending mode order: the split's two halves, or every
// leaf. A child's contraction reads the matrices of the node's other
// modes as the leaves visited before it left them.
func (w *treeWalk) descend(part []float64, lo, hi int) error {
	m := w.ws.split[w.node(lo, hi)]
	if m == leafChains {
		for k := lo; k < hi; k++ {
			if err := w.child(part, lo, hi, k, k+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := w.child(part, lo, hi, lo, m); err != nil {
		return err
	}
	return w.child(part, lo, hi, m, hi)
}

// child contracts the modes of the node [lo, hi) outside [clo, chi)
// into that child and visits it: a leaf lands in ys[clo] and goes to
// leaf, an inner child takes the next partial-stack slot and descends.
// A priced walk adds the contraction's GEMMs to count instead and
// visits no leaf.
func (w *treeWalk) child(part []float64, lo, hi, clo, chi int) error {
	if w.count != nil {
		w.nodeDims(lo, hi)
		for _, k := range w.order(lo, hi, clo, chi) {
			w.count.step(w.ws.dims, k, w.ws.ranks[k])
		}
		if chi-clo > 1 {
			return w.descend(nil, clo, chi)
		}
		return nil
	}
	var out []float64
	if chi-clo == 1 {
		out = w.ys[clo].Data()
	} else {
		out = w.ws.push(w.nodeDims(clo, chi))
	}
	w.nodeDims(lo, hi)
	contractRange(out, part, w.ws.dims, w.us, lo, hi, clo, chi, w.workers, w.ws)
	if chi-clo > 1 {
		err := w.descend(out, clo, chi)
		w.ws.pop()
		return err
	}
	k := clo
	if err := w.leaf(k, w.ys[k]); err != nil {
		return err
	}
	if u := w.us[k]; u == nil || u.Rows() != w.ws.shape[k] || u.Cols() != w.ws.ranks[k] {
		panic(fmt.Sprintf("ttm: leaf %d changed the shape of matrix %d", k, k))
	}
	return nil
}

// nodeDims loads the extents of the node [lo, hi) — x's on the range,
// the matrices' column counts elsewhere — into ws's extent vector and
// returns the node's element count.
func (w *treeWalk) nodeDims(lo, hi int) int {
	ws := w.ws
	ws.dims = growInts(ws.dims, len(ws.shape))
	n := 1
	for k := range ws.dims {
		d := ws.shape[k]
		if k < lo || k >= hi {
			d = ws.ranks[k]
		}
		ws.dims[k] = d
		n *= d
	}
	return n
}

// gemmCount sums the words and flops obs.Gemm records.
type gemmCount struct{ words, flops int64 }

// step adds the GEMMs of ttmSlices contracting mode k of a tensor of
// extents dims to r columns — one GEMM (L x I)·(I x r) when the mode
// is the trailing one, one (r x I)·(I x Rt) when it is the leading
// one, and Rt slab GEMMs (L x I)·(I x r) between — and sets dims[k]
// to r.
func (c *gemmCount) step(dims []int, k, r int) {
	L, Rt := slabDims(dims, k)
	l, i, rt, rr := int64(L), int64(dims[k]), int64(Rt), int64(r)
	switch {
	case Rt == 1:
		c.words += l*i + i*rr + l*rr
	case L == 1:
		c.words += rr*i + i*rt + rr*rt
	default:
		c.words += rt * (l*i + i*rr + l*rr)
	}
	c.flops += 2 * l * i * rr * rt
	dims[k] = r
}
