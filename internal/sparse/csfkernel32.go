package sparse

// Float32 storage entry points for the CSF MTTKRP: factors and output
// in float32, the leaf-value stream in float32 when EnableF32Values
// has run. The fiber-tree walk itself is untouched — factors widen to
// float64 in the row-major pack, every accumulation runs in float64
// through the exact same kernelPass, and the result rounds to float32
// in the scatter. Determinism therefore carries over verbatim: the
// output is bitwise identical for every worker count.

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/tensor"
)

// MTTKRP32 computes the mode-n MTTKRP on float32 factors with the
// default worker count, allocating a float32 result.
func (t *CSF) MTTKRP32(factors []*tensor.Matrix32, n int) *tensor.Matrix32 {
	R := checkFactors(t, factors, n)
	b := tensor.NewMatrix32(t.dims[n], R)
	t.MTTKRPInto32(b, factors, n, 0, nil)
	return b
}

// MTTKRPInto32 is MTTKRPInto with float32 factor and output storage.
// factors[n] may be nil. Accumulation is float64 end to end; the only
// new roundings are the per-element factor widen (exact) and the final
// float32 store.
//
//repro:hotpath
func (t *CSF) MTTKRPInto32(b *tensor.Matrix32, factors []*tensor.Matrix32, n, workers int, ws *Workspace) {
	R := checkFactors(t, factors, n)
	if b.Rows() != t.dims[n] || b.Cols() != R {
		panic(fmt.Sprintf("sparse: MTTKRPInto32 output is %dx%d, want %dx%d",
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
		packRowMajor32(ws.packed[lv], factors[t.perm[lv]], R)
	}
	t.kernelPass(R, lout, workers, nbuf, total, ws)
	t.addKernelCost(lout, R)
	scatterRowMajor32(b, ws.acc[:total], R)
}

// AllModes32 computes every mode's MTTKRP on float32 factors in one
// traversal, allocating the float32 results.
func (t *CSF) AllModes32(factors []*tensor.Matrix32, workers int) []*tensor.Matrix32 {
	R := checkFactors(t, factors, tensor.AllModes)
	outs := make([]*tensor.Matrix32, len(t.dims))
	for k := range outs {
		outs[k] = tensor.NewMatrix32(t.dims[k], R)
	}
	t.AllModesInto32(outs, factors, workers, nil)
	return outs
}

// AllModesInto32 is AllModesInto with float32 factor and output
// storage; same shared-walk reuse, float64 accumulation, and
// worker-count bitwise determinism.
//
//repro:hotpath
func (t *CSF) AllModesInto32(outs []*tensor.Matrix32, factors []*tensor.Matrix32, workers int, ws *Workspace) {
	R := checkFactors(t, factors, tensor.AllModes)
	N := len(t.dims)
	if len(outs) != N {
		panic(fmt.Sprintf("sparse: got %d outputs for an order-%d tensor", len(outs), N))
	}
	for k, o := range outs {
		if o == nil || o.Rows() != t.dims[k] || o.Cols() != R {
			panic(fmt.Sprintf("sparse: AllModesInto32 output %d has wrong shape", k))
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
		packRowMajor32(ws.packed[lv], factors[t.perm[lv]], R)
	}
	t.kernelPass(R, -1, workers, nbuf, total, ws)
	t.addKernelCost(-1, R)
	off := 0
	for lv := 0; lv < N; lv++ {
		sz := t.dims[t.perm[lv]] * R
		scatterRowMajor32(outs[t.perm[lv]], ws.acc[off:off+sz], R)
		off += sz
	}
}

// packRowMajor32 mirrors a column-major float32 factor into the
// row-major float64 slab the walkers read — the widening is exact, so
// the walk sees the same numbers a pre-widened factor would give.
//
//repro:hotpath
func packRowMajor32(dst []float64, f *tensor.Matrix32, R int) {
	obs.Copy(f.Rows() * R)
	for r := 0; r < R; r++ {
		col := f.Col(r)
		for i, v := range col {
			dst[i*R+r] = float64(v)
		}
	}
}

// scatterRowMajor32 transposes the row-major float64 accumulator into
// a column-major float32 output — the single store-side rounding of
// the sparse float32 path.
//
//repro:hotpath
func scatterRowMajor32(b *tensor.Matrix32, src []float64, R int) {
	I := b.Rows()
	obs.Copy(I * R)
	bd := b.Data()
	for r := 0; r < R; r++ {
		col := bd[r*I : (r+1)*I]
		for i := range col {
			col[i] = float32(src[i*R+r])
		}
	}
}
