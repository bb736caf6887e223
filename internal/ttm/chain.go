package ttm

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/tensor"
)

// appendGreedyOrder writes into ord's backing array the order in which
// a contraction of the modes of [lo, hi) outside [skipLo, skipHi) runs
// on a tensor of extents dims, mode k contracting to ranks[k] columns:
// sorted by ascending ranks[k]/dims[k] — the mode that shrinks the
// intermediate most is contracted first, which greedily minimizes the
// flops and words of every later step. The ratios compare by integer
// cross-multiplication, so the order is exact, and ties break toward
// the lower mode index. The order depends on shapes only, never on
// values or worker count. The caller guarantees capacity, keeping the
// hot path allocation-free.
func appendGreedyOrder(ord, dims, ranks []int, lo, hi, skipLo, skipHi int) []int {
	ord = ord[:0]
	for k := lo; k < hi; k++ {
		if k < skipLo || k >= skipHi {
			ord = append(ord, k) //repro:ignore hotpath-alloc caller grows ord to len(dims) up front
		}
	}
	// Insertion sort: stable, allocation-free, and tiny for tensor
	// orders (len <= N).
	for i := 1; i < len(ord); i++ {
		for j := i; j > 0 && ranks[ord[j]]*dims[ord[j-1]] < ranks[ord[j-1]]*dims[ord[j]]; j-- {
			ord[j], ord[j-1] = ord[j-1], ord[j]
		}
	}
	return ord
}

// contractRange contracts the modes of [lo, hi) outside [clo, chi) of
// the tensor in (extents dims, which it overwrites with out's) in the
// greedy order of ws's walk shapes (ws.shape, ws.ranks): TreeInto's
// contraction of the node [lo, hi) into its child [clo, chi).
//
//repro:hotpath
func contractRange(out, in []float64, dims []int, us []*tensor.Matrix, lo, hi, clo, chi, workers int, ws *Workspace) {
	ws.ord = growInts(ws.ord, len(dims))
	contract(out, in, dims, us, appendGreedyOrder(ws.ord, ws.shape, ws.ranks, lo, hi, clo, chi), workers, ws)
}

// contract runs the mode contractions steps, in order, on the
// column-major tensor in (extents dims) and leaves the result in out,
// ping-ponging the intermediates through ws. dims is updated in place
// to out's extents. No steps is a copy. The contraction is timed as
// PhaseTTMChain and each step as PhaseTTM.
//
//repro:hotpath
func contract(out, in []float64, dims []int, us []*tensor.Matrix, steps []int, workers int, ws *Workspace) {
	if len(steps) == 0 {
		n := copy(out, in)
		obs.Copy(n)
		return
	}
	sp := obs.Start(obs.PhaseTTMChain)
	if len(steps) > 1 {
		// Grow the ping-pong buffers to the largest intermediate.
		maxInter, size := 0, len(in)
		for _, k := range steps[:len(steps)-1] {
			size = size / dims[k] * us[k].Cols()
			if size > maxInter {
				maxInter = size
			}
		}
		ws.a = grow(ws.a, maxInter)
		ws.b = grow(ws.b, maxInter)
	}
	cur := in
	useA := true
	for i, k := range steps {
		u := us[k]
		L, Rt := slabDims(dims, k)
		I, R := dims[k], u.Cols()
		var dst []float64
		switch {
		case i == len(steps)-1:
			dst = out
		case useA:
			dst, useA = ws.a[:L*R*Rt], false
		default:
			dst, useA = ws.b[:L*R*Rt], true
		}
		ttmSlices(dst, cur, u, L, I, Rt, workers, false)
		cur = dst
		dims[k] = R
	}
	sp.Stop()
}

// slabDims returns the extents of the slab stack around mode k of a
// tensor of extents dims: L, the product of the extents below k, and
// Rt, the product of those above.
func slabDims(dims []int, k int) (L, Rt int) {
	L, Rt = 1, 1
	for _, d := range dims[:k] {
		L *= d
	}
	for _, d := range dims[k+1:] {
		Rt *= d
	}
	return L, Rt
}

// checkOut panics unless out has extent us[k].Cols() on every mode k
// other than skip and x's extent on skip.
func checkOut(out, x *tensor.Dense, us []*tensor.Matrix, skip int) {
	N := x.Order()
	if out.Order() != N {
		panic(fmt.Sprintf("ttm: out has order %d, want %d", out.Order(), N))
	}
	for k := 0; k < N; k++ {
		want := x.Dim(k)
		if k != skip {
			want = us[k].Cols()
		}
		if out.Dim(k) != want {
			panic(fmt.Sprintf("ttm: out extent %d on mode %d, want %d", out.Dim(k), k, want))
		}
	}
}
