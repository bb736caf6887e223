package ttm

import (
	"fmt"

	"repro/internal/tensor"
)

// TreeInto computes, for k = 0..N-1 in ascending order, the projection
// of x on every mode but k — the chain ChainInto(ys[k], x, us, k) —
// and calls leaf(k, y) as soon as y holds it. The N chains share their
// partial contractions on a dimension tree of contiguous mode ranges,
// the structure internal/dimtree walks for CP (Phan et al., the
// paper's reference [13]):
//
//   - the node for the modes [lo, hi) holds x contracted on every mode
//     outside the range; the root [0, N) is x itself;
//   - an inner node either splits at a mode m into the children
//     [lo, m) and [m, hi), or computes each of its leaves straight
//     from its own partial, as a chain over the rest of the range;
//   - a child is the node with the node's other modes contracted (in
//     ChainInto's greedy order over them), and the walk finishes each
//     child's subtree before it builds the next child;
//   - the leaf [k, k+1) is written into ys[k].
//
// leaf may replace us[k] with a matrix of the same shape — HOOI's
// factor update — and every contraction after it reads the new one.
// Mode k's projection therefore contracts the modes below k with their
// replaced matrices and the modes above k with the ones passed in,
// exactly the factor versions of a HOOI sweep's per-mode chains.
//
// The tree's shape comes from the operand shapes alone: the one with
// the fewest multiply-adds, ties going to the balanced split
// m = lo + (hi-lo)/2 that dimtree uses. A split saves work only when
// both halves' contractions shrink x comparably: a child that keeps
// its sibling's non-shrinking modes uncontracted repeats their cost
// below it. Because computing every leaf straight from the root is the
// per-mode loop itself, the walk never costs more multiply-adds than
// the N chains. At 32^4, ranks 8 it is the balanced tree, and the
// projections take 46.1 instead of 88.1 MFLOP.
//
// ys[k] must have ChainInto's out shape for skip k and must not alias
// x. For an order-1 tensor the root is the leaf, and y is x itself.
// The plan and the partials live in ws's grow-only buffers, so a
// steady-state walk allocates nothing beyond what leaf does; leaf may
// pass ws to every call but TreeInto. A non-nil error from leaf stops
// the walk and is returned. The projections are bitwise identical for
// every worker count, and differ from ChainInto's by rounding only.
//
//repro:hotpath
func TreeInto(ys []*tensor.Dense, x *tensor.Dense, us []*tensor.Matrix, workers int, ws *Workspace, leaf func(k int, y *tensor.Dense) error) error {
	N := x.Order()
	checkChain(x, us, 0, N, -1)
	if len(ys) != N {
		panic(fmt.Sprintf("ttm: %d projections for order-%d tensor", len(ys), N))
	}
	for k, y := range ys {
		checkOut(y, x, us, 0, N, k)
	}
	if N == 1 {
		return leaf(0, x)
	}
	ws.sp = 0
	w := treeWalk{ys: ys, x: x, us: us, workers: workers, ws: ws, leaf: leaf}
	w.plan()
	return w.descend(x.Data(), 0, N)
}

// leafChains marks a node of the plan whose leaves are contracted
// straight from its partial.
const leafChains = -1

// treeWalk carries one TreeInto traversal's fixed arguments.
type treeWalk struct {
	ys      []*tensor.Dense
	x       *tensor.Dense
	us      []*tensor.Matrix
	workers int
	ws      *Workspace
	leaf    func(k int, y *tensor.Dense) error
}

// node indexes the node [lo, hi) in ws's plan tables.
func (w *treeWalk) node(lo, hi int) int { return lo*w.x.Order() + hi - 1 }

// plan fills ws.split, for every node [lo, hi) of two or more modes,
// with the split mode m or leafChains, whichever gives the subtree the
// fewest multiply-adds (ws.cost), by dynamic programming from the
// smallest ranges up. A node's partial has the same extents however
// the walk reached it, so each range is priced once. Ties keep the
// balanced split, then the lower m, then a split over leafChains.
func (w *treeWalk) plan() {
	N := w.x.Order()
	ws := w.ws
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
				chains += w.stepsCost(size, appendGreedyOrder(ws.ord, w.us, lo, hi, k, k+1))
			}
			if chains < best {
				best, split = chains, leafChains
			}
			ws.cost[w.node(lo, hi)], ws.split[w.node(lo, hi)] = best, split
		}
	}
}

// splitCost prices splitting the node [lo, hi), of size elements, at
// m: both children's contractions plus their subtrees.
func (w *treeWalk) splitCost(size, lo, hi, m int) int {
	ws := w.ws
	c := w.stepsCost(size, appendGreedyOrder(ws.ord, w.us, lo, hi, lo, m))
	c += w.stepsCost(size, appendGreedyOrder(ws.ord, w.us, lo, hi, m, hi))
	return c + ws.cost[w.node(lo, m)] + ws.cost[w.node(m, hi)]
}

// stepsCost returns the multiply-adds of contracting steps, in order,
// from a partial of size elements that holds x's extent on each of
// them: one per element of the input per output column.
func (w *treeWalk) stepsCost(size int, steps []int) int {
	c := 0
	for _, k := range steps {
		r := w.us[k].Cols()
		c += size * r
		size = size / w.x.Dim(k) * r
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
func (w *treeWalk) child(part []float64, lo, hi, clo, chi int) error {
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
	cols := w.us[k].Cols()
	if err := w.leaf(k, w.ys[k]); err != nil {
		return err
	}
	if u := w.us[k]; u == nil || u.Rows() != w.x.Dim(k) || u.Cols() != cols {
		panic(fmt.Sprintf("ttm: leaf %d changed the shape of matrix %d", k, k))
	}
	return nil
}

// nodeDims loads the extents of the node [lo, hi) — x's on the range,
// the matrices' column counts elsewhere — into ws's extent vector and
// returns the node's element count.
func (w *treeWalk) nodeDims(lo, hi int) int {
	w.ws.dims = growInts(w.ws.dims, w.x.Order())
	n := 1
	for k := range w.ws.dims {
		d := w.x.Dim(k)
		if k < lo || k >= hi {
			d = w.us[k].Cols()
		}
		w.ws.dims[k] = d
		n *= d
	}
	return n
}
