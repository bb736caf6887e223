package ttm

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/tensor"
)

// Chain applies TTMs for every mode except skip (skip = -1 applies
// all). us[k] may be nil when k == skip. The result of a full chain
// with the Tucker factors is the core tensor. Contractions run in the
// cost-greedy order (see appendGreedyOrder); the result is bitwise
// identical for every worker count but differs from ChainScalar's
// ascending order by floating-point rounding only.
func Chain(x *tensor.Dense, us []*tensor.Matrix, skip int) *tensor.Dense {
	return ChainWorkers(x, us, skip, 0)
}

// ChainWorkers is Chain with an explicit worker count (<= 0 selects
// the linalg default).
func ChainWorkers(x *tensor.Dense, us []*tensor.Matrix, skip, workers int) *tensor.Dense {
	checkChain(x, us, 0, x.Order(), skip)
	dims := x.Dims()
	for k := range dims {
		if k != skip {
			dims[k] = us[k].Cols()
		}
	}
	out := tensor.NewDense(dims...)
	ws := GetWorkspace()
	ChainInto(out, x, us, skip, workers, ws)
	PutWorkspace(ws)
	return out
}

// appendGreedyOrder writes into ord's backing array the order in which
// a contraction of the modes of [lo, hi) outside [skipLo, skipHi) runs:
// sorted by ascending Cols/Rows ratio — the mode that shrinks the
// intermediate most is contracted first, which greedily minimizes the
// flops and words of every later step. Ties break toward the lower
// mode index. The order depends on operand shapes only, never on
// values or worker count. The caller guarantees capacity, keeping the
// hot path allocation-free.
func appendGreedyOrder(ord []int, us []*tensor.Matrix, lo, hi, skipLo, skipHi int) []int {
	ord = ord[:0]
	for k := lo; k < hi; k++ {
		if k < skipLo || k >= skipHi {
			ord = append(ord, k) //repro:ignore hotpath-alloc caller grows ord to len(us) up front
		}
	}
	// Insertion sort: stable, allocation-free, and tiny for tensor
	// orders (len <= N).
	for i := 1; i < len(ord); i++ {
		for j := i; j > 0 && lessRatio(us[ord[j]], us[ord[j-1]]); j-- {
			ord[j], ord[j-1] = ord[j-1], ord[j]
		}
	}
	return ord
}

// lessRatio reports Cols(a)/Rows(a) < Cols(b)/Rows(b) by integer
// cross-multiplication, so ordering is exact with no float rounding.
func lessRatio(a, b *tensor.Matrix) bool {
	return a.Cols()*b.Rows() < b.Cols()*a.Rows()
}

// ChainInto applies the chain into out, reusing ws for intermediates
// so steady-state sweeps allocate nothing once ws has grown. out must
// have extent us[k].Cols() on every mode k != skip and x's extent on
// skip, and must not alias x. An empty chain (an order-1 tensor whose
// only mode is skipped) degenerates to a copy.
//
//repro:hotpath
func ChainInto(out, x *tensor.Dense, us []*tensor.Matrix, skip, workers int, ws *Workspace) {
	N := x.Order()
	checkChain(x, us, 0, N, skip)
	checkOut(out, x, us, 0, N, skip)
	ws.ord = growInts(ws.ord, N)
	steps := appendGreedyOrder(ws.ord, us, 0, N, skip, skip+1)
	contract(out.Data(), x.Data(), ws.extents(x), us, steps, workers, ws)
}

// contractRange contracts the modes of [lo, hi) outside [clo, chi) of
// the tensor in (extents dims, which it overwrites with out's) in the
// cost-greedy order: TreeInto's contraction of the node [lo, hi) into
// its child [clo, chi).
//
//repro:hotpath
func contractRange(out, in []float64, dims []int, us []*tensor.Matrix, lo, hi, clo, chi, workers int, ws *Workspace) {
	ws.ord = growInts(ws.ord, len(dims))
	contract(out, in, dims, us, appendGreedyOrder(ws.ord, us, lo, hi, clo, chi), workers, ws)
}

// contract runs the mode contractions steps, in order, on the
// column-major tensor in (extents dims) and leaves the result in out,
// ping-ponging the intermediates through ws. dims is updated in place
// to out's extents. No steps is a copy. The chain is timed as
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
	N := len(dims)
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
		L, Rt := 1, 1
		for j := 0; j < k; j++ {
			L *= dims[j]
		}
		for j := k + 1; j < N; j++ {
			Rt *= dims[j]
		}
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

// checkOut panics unless out has extent us[k].Cols() on every mode k
// of [lo, hi) other than skip and x's extent on every other mode.
func checkOut(out, x *tensor.Dense, us []*tensor.Matrix, lo, hi, skip int) {
	N := x.Order()
	if out.Order() != N {
		panic(fmt.Sprintf("ttm: out has order %d, want %d", out.Order(), N))
	}
	for k := 0; k < N; k++ {
		want := x.Dim(k)
		if k >= lo && k < hi && k != skip {
			want = us[k].Cols()
		}
		if out.Dim(k) != want {
			panic(fmt.Sprintf("ttm: out extent %d on mode %d, want %d", out.Dim(k), k, want))
		}
	}
}
