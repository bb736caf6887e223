package ttm

import (
	"fmt"

	"repro/internal/fanout"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/tensor"
)

// ttmSlabName labels per-slab GEMM chunks on flight-recorder worker
// rows, mirroring kernel.FastInto's "slab" spans.
var ttmSlabName = flight.RegisterName("ttm-slab")

// TTM returns Y = X x_mode U^T where U is I_mode x R: the mode's
// extent becomes R. The contraction runs as blocked GEMM over the
// contiguous column-major slabs of the storage order (no unfolding is
// materialized) at the default worker count.
func TTM(x *tensor.Dense, u *tensor.Matrix, mode int) *tensor.Dense {
	return TTMWorkers(x, u, mode, 0)
}

// TTMWorkers is TTM with an explicit worker count (<= 0 selects the
// linalg default). The result is bitwise identical for every worker
// count.
func TTMWorkers(x *tensor.Dense, u *tensor.Matrix, mode, workers int) *tensor.Dense {
	checkTTM(x, u, mode)
	outDims := x.Dims()
	outDims[mode] = u.Cols()
	out := tensor.NewDense(outDims...)
	TTMInto(out, x, u, mode, workers)
	return out
}

// TTMInto computes Y = X x_mode U^T into out, which must have
// u.Cols() extent on mode and x's extents elsewhere, and must not
// alias x. Nothing is allocated: out is written by GEMM directly.
//
//repro:hotpath
func TTMInto(out, x *tensor.Dense, u *tensor.Matrix, mode, workers int) {
	checkTTM(x, u, mode)
	checkInto(out, x, mode, u.Cols())
	L, I, Rt := slabShape(x, mode)
	ttmSlices(out.Data(), x.Data(), u, L, I, Rt, workers, false)
}

// TTMT returns Y = X x_mode U, contracting against U's *columns*
// (u.Cols() must equal the mode extent; the mode's extent becomes
// u.Rows()). This is the transposed-factor variant Tucker
// reconstruction needs — computing it directly avoids materializing
// linalg.Transpose(U) at all.
func TTMT(x *tensor.Dense, u *tensor.Matrix, mode int) *tensor.Dense {
	return TTMTWorkers(x, u, mode, 0)
}

// TTMTWorkers is TTMT with an explicit worker count.
func TTMTWorkers(x *tensor.Dense, u *tensor.Matrix, mode, workers int) *tensor.Dense {
	checkTTMT(x, u, mode)
	outDims := x.Dims()
	outDims[mode] = u.Rows()
	out := tensor.NewDense(outDims...)
	TTMTInto(out, x, u, mode, workers)
	return out
}

// TTMTInto computes Y = X x_mode U into out (extent u.Rows() on mode).
//
//repro:hotpath
func TTMTInto(out, x *tensor.Dense, u *tensor.Matrix, mode, workers int) {
	checkTTMT(x, u, mode)
	checkInto(out, x, mode, u.Rows())
	L, I, Rt := slabShape(x, mode)
	ttmSlices(out.Data(), x.Data(), u, L, I, Rt, workers, true)
}

// checkTTMT validates the transposed-variant operands.
func checkTTMT(x *tensor.Dense, u *tensor.Matrix, mode int) {
	N := x.Order()
	if mode < 0 || mode >= N {
		panic(fmt.Sprintf("ttm: mode %d out of range for order %d", mode, N))
	}
	if u.Cols() != x.Dim(mode) {
		panic(fmt.Sprintf("ttm: U has %d cols, mode %d has extent %d", u.Cols(), mode, x.Dim(mode)))
	}
}

// checkInto validates out's shape for a mode contraction that leaves
// extent r on mode.
func checkInto(out, x *tensor.Dense, mode, r int) {
	N := x.Order()
	if out.Order() != N {
		panic(fmt.Sprintf("ttm: out has order %d, want %d", out.Order(), N))
	}
	for k := 0; k < N; k++ {
		want := x.Dim(k)
		if k == mode {
			want = r
		}
		if out.Dim(k) != want {
			panic(fmt.Sprintf("ttm: out extent %d on mode %d, want %d", out.Dim(k), k, want))
		}
	}
}

// slabShape splits x's column-major storage around mode into an
// L x I x Rt stack: Rt contiguous column-major L x I slabs with I the
// contracted extent.
func slabShape(x *tensor.Dense, mode int) (L, I, Rt int) {
	L, Rt = 1, 1
	for k := 0; k < mode; k++ {
		L *= x.Dim(k)
	}
	for k := mode + 1; k < x.Order(); k++ {
		Rt *= x.Dim(k)
	}
	return L, x.Dim(mode), Rt
}

// ttmSlices runs one mode contraction on raw column-major storage.
// X is an L x I x Rt slab stack; trans=false contracts against U's
// rows (Y = X x_k U^T, mode extent -> u.Cols()), trans=true against
// its columns (Y = X x_k U, mode extent -> u.Rows()). The boundary
// modes are single GEMMs because the unfolding is already contiguous
// there; interior modes fan independent per-slab GEMMs out over
// workers (each slab runs single-threaded into a disjoint out range,
// so results are bitwise worker-count independent).
//
//repro:hotpath
func ttmSlices(out, data []float64, u *tensor.Matrix, L, I, Rt, workers int, trans bool) {
	R := u.Cols()
	if trans {
		R = u.Rows()
	}
	ud := u.Data()
	sp := obs.Start(obs.PhaseTTM)
	switch {
	case Rt == 1:
		// Y (L x R) = X (L x I) * op(U): the mode is the trailing
		// (slowest) index, so the L x I view is the whole storage.
		if trans {
			linalg.GemmNT(out, data, ud, L, I, R, workers)
		} else {
			linalg.GemmNN(out, data, ud, L, I, R, workers)
		}
	case L == 1:
		// Y (R x Rt) = op(U) * X (I x Rt): the mode is the leading
		// (fastest) index, so the I x Rt view is the whole storage.
		if trans {
			linalg.GemmNN(out, ud, data, R, I, Rt, workers)
		} else {
			linalg.GemmTN(out, ud, data, I, R, Rt, workers)
		}
	default:
		ttmSlabs(out, data, ud, L, I, Rt, R, workers, trans)
	}
	sp.Stop()
}

// ttmChunks fixes the slab-queue granularity so the work split (and
// the flight-trace shape) is worker-count independent, mirroring
// kernel's interiorChunks.
const ttmChunks = 16

// ttmSlabs computes the interior-mode case: for each of the Rt slabs,
// Y_t (L x R) = X_t (L x I) * op(U). The slabs run as one fanout
// section over a fixed chunk queue.
//
//repro:hotpath
func ttmSlabs(out, data, ud []float64, L, I, Rt, R, workers int, trans bool) {
	nchunk := min(ttmChunks, Rt)
	t := slabTasks.Get()
	*t = slabTask{out: out, data: data, ud: ud, L: L, I: I, Rt: Rt, R: R, nchunk: nchunk, trans: trans}
	fanout.Run(t, nchunk, min(linalg.ResolveWorkers(workers), nchunk))
	*t = slabTask{}
	slabTasks.Put(t)
}

// slabTask is the interior-mode TTM as a fanout task. Chunk c covers
// slabs [c*Rt/nchunk, (c+1)*Rt/nchunk), a range fixed by (Rt, nchunk),
// and every slab's GEMM writes a disjoint out range single-threaded, so
// any assignment of chunks to slots produces bitwise identical output.
type slabTask struct {
	out, data, ud       []float64
	L, I, Rt, R, nchunk int
	trans               bool
}

// slabTasks holds the descriptors of the TTMs in flight: TTMInto has
// no workspace to keep one in.
var slabTasks fanout.Free[slabTask]

// Chunk runs the slab GEMMs of chunk c.
//
//repro:hotpath
func (t *slabTask) Chunk(c, slot int) {
	fr := flight.Rec()
	if fr.Enabled() {
		fr.Begin(flight.AnonPid, slot, ttmSlabName)
	}
	for s := c * t.Rt / t.nchunk; s < (c+1)*t.Rt/t.nchunk; s++ {
		slabGemm(t.out, t.data, t.ud, t.L, t.I, t.R, s, t.trans)
	}
	if fr.Enabled() {
		fr.End(flight.AnonPid, slot, ttmSlabName)
	}
}

// slabGemm runs the single-threaded GEMM of slab t.
//
//repro:hotpath
func slabGemm(out, data, ud []float64, L, I, R, t int, trans bool) {
	x := data[t*L*I : (t+1)*L*I]
	y := out[t*L*R : (t+1)*L*R]
	if trans {
		linalg.GemmNT(y, x, ud, L, I, R, 1)
	} else {
		linalg.GemmNN(y, x, ud, L, I, R, 1)
	}
}
