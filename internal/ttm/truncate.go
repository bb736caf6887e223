package ttm

import (
	"fmt"

	"repro/internal/tensor"
)

// TruncateInto runs the pass of the sequentially truncated HOSVD
// (ST-HOSVD; Vannieuwenhoven, Vandebril and Meerbergen, SIAM J. Sci.
// Comput. 2012). It visits x's modes in the order truncationOrder
// plans from the shapes. For each mode k it calls factor(k, y), where
// y is x contracted on the modes visited before k with the matrices
// factor returned for them; it stores the I_k x ranks[k] matrix that
// factor returns in us[k], and contracts mode k of y with it (TTMInto)
// into the next y. A factor that forms y's mode-k Gram therefore forms
// it on x already truncated in the modes before k, and only the first
// mode's Gram and contraction read x itself.
//
// core receives the last contraction, x x_k us[k]^T over every mode:
// the ST-HOSVD core. A nil core skips that contraction, for callers
// that need only the factors.
//
// y is x itself for the first mode. The later ones ping-pong through
// ws's ping-pong buffers, so y is valid only during the call, and
// factor may pass ws to GramInto but to no tree or truncation call.
// Their tensor headers are kept in ws too, so a steady-state pass
// allocates nothing beyond what factor does. A non-nil error from
// factor stops the pass and is returned. The pass is bitwise identical
// for every worker count whenever factor is.
//
//repro:hotpath
func TruncateInto(core, x *tensor.Dense, ranks []int, us []*tensor.Matrix, workers int, ws *Workspace, factor func(k int, y *tensor.Dense) (*tensor.Matrix, error)) error {
	N := x.Order()
	if len(ranks) != N || len(us) != N {
		panic(fmt.Sprintf("ttm: %d ranks and %d matrices for order-%d tensor", len(ranks), len(us), N))
	}
	for k, r := range ranks {
		if r < 1 || r > x.Dim(k) {
			panic(fmt.Sprintf("ttm: rank %d for mode %d of extent %d", r, k, x.Dim(k)))
		}
		if core != nil && (core.Order() != N || core.Dim(k) != r) {
			panic(fmt.Sprintf("ttm: core extent on mode %d, want %d", k, r))
		}
	}
	dims := ws.extents(x)
	ws.ord = growInts(ws.ord, N)
	order := truncationOrder(ws.ord, dims, ranks)
	// The first contraction's output is the largest intermediate.
	n := x.Elems() / dims[order[0]] * ranks[order[0]]
	ws.a = grow(ws.a, n)
	ws.b = grow(ws.b, n)
	y := x
	for i, k := range order {
		u, err := factor(k, y)
		if err != nil {
			return err
		}
		if u == nil || u.Rows() != x.Dim(k) || u.Cols() != ranks[k] {
			panic(fmt.Sprintf("ttm: factor %d is not %dx%d", k, x.Dim(k), ranks[k]))
		}
		us[k] = u
		out := core
		if i < N-1 {
			dims[k] = ranks[k]
			out = ws.truncView(i, dims)
		} else if core == nil {
			return nil
		}
		TTMInto(out, y, u, k, workers)
		y = out
	}
	return nil
}

// truncationOrder writes into ord's backing array (capacity at least
// len(dims)) the order in which TruncateInto visits the modes of a
// tensor with extents dims: the one with the fewest flops for a factor
// that forms each mode's Gram. Mode k on a tensor of S entries costs
// (I_k + 1)·S Gram flops (what obs.Syrk records) plus 2·R_k·S
// contraction flops, and leaves R_k/I_k·S entries; the Gram's bucket
// merge, at most 30·I_k^2 flops whatever S, is left out. Swapping two
// adjacent modes a and b changes only their own two costs, so a
// precedes b exactly when
//
//	(I_a+1+2R_a)·I_a·(I_b-R_b) < (I_b+1+2R_b)·I_b·(I_a-R_a),
//
// a strict weak order (ascending c_k·I_k/(I_k-R_k), infinite when
// R_k = I_k), and sorting by it leaves no swap that saves flops: the
// exchange argument of Smith's rule. Ties go to the higher mode, so a
// uniform shape runs N-1, ..., 0 and the leading mode's Gram, the
// slowest form, runs on the smallest tensor. Modes whose rank equals
// their extent do not shrink and go last. The order depends on the
// shapes alone, never on values or the worker count.
func truncationOrder(ord, dims, ranks []int) []int {
	ord = ord[:len(dims)]
	for i := range ord {
		ord[i] = len(dims) - 1 - i
	}
	// Insertion sort: stable, so ties keep the descending start.
	for i := 1; i < len(ord); i++ {
		for j := i; j > 0 && truncatesFirst(dims, ranks, ord[j], ord[j-1]); j-- {
			ord[j], ord[j-1] = ord[j-1], ord[j]
		}
	}
	return ord
}

// truncatesFirst reports whether mode a strictly precedes mode b in
// truncationOrder, by exact integer cross-multiplication.
func truncatesFirst(dims, ranks []int, a, b int) bool {
	ia, ib := dims[a], dims[b]
	ca, cb := ia+1+2*ranks[a], ib+1+2*ranks[b]
	return ca*ia*(ib-ranks[b]) < cb*ib*(ia-ranks[a])
}

// truncView returns a tensor header with extents dims over the front
// of a truncation pass's intermediate i: ws.a for even i, ws.b for odd
// i. The header is kept per step and made anew only when the buffer
// grew or the extents changed, so steady-state passes allocate none.
func (ws *Workspace) truncView(i int, dims []int) *tensor.Dense {
	buf := ws.a
	if i%2 == 1 {
		buf = ws.b
	}
	n := 1
	for _, d := range dims {
		n *= d
	}
	buf = buf[:n]
	if len(ws.views) <= i {
		ws.views = append(ws.views, make([]*tensor.Dense, i+1-len(ws.views))...) //repro:ignore hotpath-alloc grow-only header table, at most N-1 long; settles after the first pass
	}
	if v := ws.views[i]; v != nil && sameView(v, buf, dims) {
		return v
	}
	ws.views[i] = tensor.NewDenseFromData(buf, dims...) //repro:ignore hotpath-alloc header made only while the buffers grow or the shape changes
	return ws.views[i]
}

// sameView reports whether v has extents dims over exactly buf.
func sameView(v *tensor.Dense, buf []float64, dims []int) bool {
	if v.Order() != len(dims) || len(v.Data()) != len(buf) || &v.Data()[0] != &buf[0] {
		return false
	}
	for k, d := range dims {
		if v.Dim(k) != d {
			return false
		}
	}
	return true
}
