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
	checkChain(x, us, skip)
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
// a chain contracts its modes: every mode except skip, sorted by
// ascending Cols/Rows ratio — the mode that shrinks the intermediate
// most is contracted first, which greedily minimizes the flops and
// words of every later step. Ties break toward the lower mode index.
// The order depends on operand shapes only, never on values or worker
// count. The caller guarantees capacity, keeping the hot path
// allocation-free.
func appendGreedyOrder(ord []int, us []*tensor.Matrix, skip int) []int {
	ord = ord[:0]
	for k := range us {
		if k != skip {
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
	checkChain(x, us, skip)
	N := x.Order()
	for k := 0; k < N; k++ {
		want := x.Dim(k)
		if k != skip {
			want = us[k].Cols()
		}
		if out.Dim(k) != want {
			panic(fmt.Sprintf("ttm: out extent %d on mode %d, want %d", out.Dim(k), k, want))
		}
	}
	ws.ord = growInts(ws.ord, N)
	steps := appendGreedyOrder(ws.ord, us, skip)
	if len(steps) == 0 {
		n := copy(out.Data(), x.Data())
		obs.Copy(n)
		return
	}
	sp := obs.Start(obs.PhaseTTMChain)
	ws.dims = growInts(ws.dims, N)
	dims := ws.dims[:N]
	for k := 0; k < N; k++ {
		dims[k] = x.Dim(k)
	}
	if len(steps) > 1 {
		// Grow the ping-pong buffers to the largest intermediate.
		maxInter, size := 0, x.Elems()
		for _, k := range steps[:len(steps)-1] {
			size = size / dims[k] * us[k].Cols()
			if size > maxInter {
				maxInter = size
			}
		}
		ws.a = grow(ws.a, maxInter)
		ws.b = grow(ws.b, maxInter)
	}
	cur := x.Data()
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
			dst = out.Data()
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
