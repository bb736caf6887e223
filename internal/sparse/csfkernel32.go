package sparse

// Float32 storage entry points for the CSF MTTKRP: factors and output
// in float32, the leaf-value stream in float32 when EnableF32Values
// has run. The fiber-tree walk itself is untouched — factors widen to
// float64 in the row-major pack, every accumulation runs in float64
// through the exact same kernelPass, and the result rounds to float32
// in the scatter. Determinism therefore carries over verbatim: the
// output is bitwise identical for every worker count.

import "repro/internal/tensor"

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
	mttkrpInto[float32](t, b, factors, n, workers, ws)
}

// AllModes32 computes every mode's MTTKRP on float32 factors in one
// traversal, allocating the float32 results.
func (t *CSF) AllModes32(factors []*tensor.Matrix32, workers int) []*tensor.Matrix32 {
	return allModes[float32](t, factors, workers, tensor.NewMatrix32)
}

// AllModesInto32 is AllModesInto with float32 factor and output
// storage; same shared-walk reuse, float64 accumulation, and
// worker-count bitwise determinism.
//
//repro:hotpath
func (t *CSF) AllModesInto32(outs []*tensor.Matrix32, factors []*tensor.Matrix32, workers int, ws *Workspace) {
	allModesInto[float32](t, outs, factors, workers, ws)
}
