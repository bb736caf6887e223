package dimtree

// The GEMM-based multi-MTTKRP engine. The balanced dimension tree only
// ever holds *contiguous* mode ranges [lo, hi): the root splits
// [0, N) into [0, m) and [m, N), and every descent splits a range at
// its midpoint. In generalized column-major layout that contiguity is
// everything — a node's partial needs no permutation to be contracted:
//
//   - a root contraction keeping [lo, hi) views the tensor in place as
//     an (L, M, Rt) 3-tensor (L = prod I_0..I_{lo-1},
//     M = prod I_lo..I_{hi-1}, Rt = prod I_hi..I_{N-1}) and is exactly
//     kernel.Contract3: one blocked GEMM when the kept range touches a
//     boundary (GemmNN for prefixes — the natural unfolding IS the
//     layout — GemmTN for suffixes), the slab-splitting interior
//     kernel otherwise;
//   - a partial contraction shares the rank index r between the source
//     and the dropped factors, so it is R independent GEMV-shaped
//     passes: per rank, the partial's slab is an (L', M', Rt')
//     column-major block and the kept result is slab * kr_r (dropped
//     suffix) or slab^T * kl_r (dropped prefix), each a call into the
//     blocked linalg kernels. Ranks split across goroutines with
//     disjoint output columns.
//
// Every temporary — partial tensors (a stack, depth <= log2 N), the
// dropped-mode KRP panels, per-worker GEMV scratch, and the interior
// kernel's accumulation buckets — lives in a grow-only workspace owned
// by the Engine, so repeated traversals allocate nothing in steady
// state. Results are bitwise independent of the worker count: the
// boundary GEMMs compute each output element in a partition-invariant
// order, rank splitting only moves whole output columns between
// goroutines, and the interior kernel accumulates into a fixed bucket
// count combined by kernel.ReduceTree. AllModesRef (the scalar tree)
// remains the correctness oracle.

import (
	"fmt"
	"sync"

	"repro/internal/kernel"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// Engine executes dimension-tree contractions with the blocked GEMM
// kernels, reusing all internal buffers across calls. An Engine is not
// safe for concurrent use; use one per goroutine (the package-level
// AllModes helpers borrow from a pool).
type Engine struct {
	// Workers is the goroutine count handed to the underlying kernels
	// (<= 0 selects the linalg package default). Results are bitwise
	// identical for every value.
	Workers int

	kws   *kernel.Workspace // Contract3 scratch (slab GEMM + buckets)
	kl    []float64         // dropped-prefix KRP panel
	kr    []float64         // dropped-suffix KRP panel
	tmp   []float64         // workers * M' scratch for two-sided partials
	stack [][]float64       // partial-tensor slots, stack discipline
	sp    int
}

// NewEngine returns an engine with the given worker count (<= 0 means
// the linalg package default).
func NewEngine(workers int) *Engine {
	return &Engine{Workers: workers, kws: new(kernel.Workspace)}
}

// AllModes computes B(n) for every mode n via the balanced dimension
// tree, freshly allocating the Result. See AllModesInto for the
// allocation-free variant.
func (e *Engine) AllModes(x *tensor.Dense, factors []*tensor.Matrix) *Result {
	res := &Result{}
	e.AllModesInto(res, x, factors)
	return res
}

// AllModesInto computes B(n) for every mode n into res, reusing
// res.B matrices whose shapes already match. With a warmed engine and
// Workers == 1 the call performs no allocations, which is what keeps
// gradient-CP and multi-MTTKRP inner loops allocation-free; parallel
// calls allocate only goroutine bookkeeping.
//
//repro:hotpath
func (e *Engine) AllModesInto(res *Result, x *tensor.Dense, factors []*tensor.Matrix) {
	R := validate(x, factors)
	N := x.Order()
	if len(res.B) != N {
		res.B = make([]*tensor.Matrix, N) //repro:ignore hotpath-alloc first-call/shape-change growth; steady state reuses res.B
	}
	for n := 0; n < N; n++ {
		if res.B[n] == nil || res.B[n].Rows() != x.Dim(n) || res.B[n].Cols() != R {
			res.B[n] = tensor.NewMatrix(x.Dim(n), R) //repro:ignore hotpath-alloc first-call/shape-change growth; steady state reuses res.B
		}
	}
	res.Flops = 0
	e.sp = 0
	if N == 2 {
		res.Flops += e.contractRoot(res.B[0].Data(), x, factors, R, 0, 1)
		res.Flops += e.contractRoot(res.B[1].Data(), x, factors, R, 1, 2)
		return
	}
	m := N / 2
	e.rootBranch(res, x, factors, R, 0, m)
	e.rootBranch(res, x, factors, R, m, N)
}

// rootBranch materializes the root child holding modes [lo, hi) and
// recursively splits it down to the leaves.
func (e *Engine) rootBranch(res *Result, x *tensor.Dense, factors []*tensor.Matrix, R, lo, hi int) {
	if hi-lo == 1 {
		res.Flops += e.contractRoot(res.B[lo].Data(), x, factors, R, lo, hi)
		return
	}
	part := e.push(prodDims(x, lo, hi) * R)
	res.Flops += e.contractRoot(part, x, factors, R, lo, hi)
	e.descend(res, part, x, factors, R, lo, hi)
	e.pop()
}

// descend splits the partial holding modes [lo, hi) at its midpoint,
// mirroring the scalar tree's structure exactly.
func (e *Engine) descend(res *Result, part []float64, x *tensor.Dense, factors []*tensor.Matrix, R, lo, hi int) {
	mid := lo + (hi-lo)/2
	if mid-lo == 1 {
		res.Flops += e.contractPart(res.B[lo].Data(), part, x, factors, R, lo, hi, lo, mid)
	} else {
		child := e.push(prodDims(x, lo, mid) * R)
		res.Flops += e.contractPart(child, part, x, factors, R, lo, hi, lo, mid)
		e.descend(res, child, x, factors, R, lo, mid)
		e.pop()
	}
	if hi-mid == 1 {
		res.Flops += e.contractPart(res.B[mid].Data(), part, x, factors, R, lo, hi, mid, hi)
	} else {
		child := e.push(prodDims(x, mid, hi) * R)
		res.Flops += e.contractPart(child, part, x, factors, R, lo, hi, mid, hi)
		e.descend(res, child, x, factors, R, mid, hi)
		e.pop()
	}
}

// contractRoot computes the partial keeping the contiguous mode range
// [lo, hi) directly from the tensor into out (prod I_lo..I_{hi-1} x R,
// overwritten) via kernel.Contract3, and returns the flop count.
//
//repro:hotpath
func (e *Engine) contractRoot(out []float64, x *tensor.Dense, factors []*tensor.Matrix, R, lo, hi int) int64 {
	span := obs.Start(obs.PhaseTreeRoot)
	defer span.Stop()
	N := x.Order()
	L := prodDims(x, 0, lo)
	M := prodDims(x, lo, hi)
	Rt := prodDims(x, hi, N)
	var fl int64
	var kl, kr []float64
	if lo > 0 {
		e.kl = growf(e.kl, L*R)
		kernel.KRPInto(e.kl, factors, 0, lo, R)
		kl = e.kl
		fl += int64(L) * int64(R)
	}
	if hi < N {
		e.kr = growf(e.kr, Rt*R)
		kernel.KRPInto(e.kr, factors, hi, N, R)
		kr = e.kr
		fl += int64(Rt) * int64(R)
	}
	if kl == nil && kr == nil {
		// Nothing dropped: the empty product broadcasts X across the R
		// rank columns (the scalar oracle's behavior and accounting).
		obs.Copy(M * R)
		for r := 0; r < R; r++ {
			copy(out[r*M:(r+1)*M], x.Data())
		}
		return fl + int64(M)*int64(R)
	}
	kernel.Contract3(out, x.Data(), kl, kr, L, M, Rt, R, e.Workers, e.kws)
	fl += 2 * int64(L) * int64(M) * int64(Rt) * int64(R)
	if kl != nil && kr != nil {
		fl += 2 * int64(M) * int64(Rt) * int64(R) // interior slab fold
	}
	return fl
}

// contractPart contracts a partial holding modes [plo, phi) down to
// the kept range [klo, khi), writing into out. Mode extents come from
// the tensor.
func (e *Engine) contractPart(out, part []float64, x *tensor.Dense, factors []*tensor.Matrix, R, plo, phi, klo, khi int) int64 {
	return e.contractPartExtents(out, part, factors, R, plo, phi, klo, khi,
		prodDims(x, plo, klo), prodDims(x, klo, khi), prodDims(x, khi, phi))
}

// contractPartExtents is the rank-split partial contraction: per rank
// r the source slab is an (Lp, Mp, Rtp) column-major block and
//
//	out(:, r) = sum_{l, t} slab(l, :, t) * kl(l, r) * kr(t, r)
//
// — a GEMV-shaped pass into the blocked kernels (GemmNN for a dropped
// suffix, GemmTN for a dropped prefix, a slab loop when both sides
// drop). Ranks are split across workers; each writes only its own
// output columns, so results are bitwise worker-count independent.
//
//repro:hotpath
func (e *Engine) contractPartExtents(out, part []float64, factors []*tensor.Matrix, R, plo, phi, klo, khi, Lp, Mp, Rtp int) int64 {
	span := obs.Start(obs.PhaseTreePartial)
	defer span.Stop()
	S := Lp * Mp * Rtp
	var fl int64
	var kl, kr []float64
	if klo > plo {
		e.kl = growf(e.kl, Lp*R)
		kernel.KRPInto(e.kl, factors, plo, klo, R)
		kl = e.kl
		fl += int64(Lp) * int64(R)
	}
	if khi < phi {
		e.kr = growf(e.kr, Rtp*R)
		kernel.KRPInto(e.kr, factors, khi, phi, R)
		kr = e.kr
		fl += int64(Rtp) * int64(R)
	}
	if kl == nil && kr == nil {
		// Nothing dropped: the contraction is the identity (the scalar
		// oracle's empty-product case). Match its flop accounting.
		obs.Copy(S * R)
		copy(out[:S*R], part[:S*R])
		return fl + int64(S)*int64(R)
	}
	workers := linalg.ResolveWorkers(e.Workers)
	if workers > R {
		workers = R
	}
	if kl != nil && kr != nil {
		e.tmp = growf(e.tmp, workers*Mp)
	}
	if workers <= 1 {
		// Direct call — no closure, so the serial path (the one the
		// zero-alloc contract covers) allocates nothing.
		partialRanks(out, part, kl, kr, e.tmp, Lp, Mp, Rtp, 0, R)
	} else {
		partialRanksParallel(out, part, kl, kr, e.tmp, Lp, Mp, Rtp, R, workers)
	}
	fl += 2 * int64(S) * int64(R)
	if kl != nil && kr != nil {
		fl += 2 * int64(Mp) * int64(Rtp) * int64(R)
	}
	return fl
}

// ContractTensor computes the partial MTTKRP keeping the given modes
// directly from the tensor — the GEMM-based counterpart of
// ContractTensorRef. keep must be non-empty and ascending; a
// non-contiguous keep set falls back to the scalar kernel (the layout
// admits no GEMM view). Returns the partial (kept extents + R) and the
// flop count.
func (e *Engine) ContractTensor(x *tensor.Dense, factors []*tensor.Matrix, R int, keep []int) (*tensor.Dense, int64) {
	if !contiguousAscending(keep) {
		return ContractTensorRef(x, factors, R, keep)
	}
	lo, hi := keep[0], keep[len(keep)-1]+1
	if lo < 0 || hi > x.Order() {
		panic(fmt.Sprintf("dimtree: keep %v out of range for order-%d tensor", keep, x.Order()))
	}
	outDims := make([]int, len(keep)+1)
	for i, k := range keep {
		outDims[i] = x.Dim(k)
	}
	outDims[len(keep)] = R
	out := tensor.NewDense(outDims...)
	return out, e.contractRoot(out.Data(), x, factors, R, lo, hi)
}

// ContractPartial contracts away modes of an existing partial (last
// dimension r) — the GEMM-based counterpart of ContractPartialRef.
// modes lists the partial's tensor modes in order, keep the modes to
// retain; when either is non-contiguous the call falls back to the
// scalar kernel. Returns the new partial and the flop count.
func (e *Engine) ContractPartial(part *tensor.Dense, modes []int, factors []*tensor.Matrix, R int, keep []int) (*tensor.Dense, int64) {
	if !contiguousAscending(modes) || !contiguousAscending(keep) {
		return ContractPartialRef(part, modes, factors, R, keep)
	}
	plo, phi := modes[0], modes[len(modes)-1]+1
	klo, khi := keep[0], keep[len(keep)-1]+1
	if klo < plo || khi > phi {
		panic(fmt.Sprintf("dimtree: keep %v not within modes %v", keep, modes))
	}
	Lp, Mp, Rtp := 1, 1, 1
	for i, k := range modes {
		d := part.Dim(i)
		switch {
		case k < klo:
			Lp *= d
		case k < khi:
			Mp *= d
		default:
			Rtp *= d
		}
	}
	outDims := make([]int, len(keep)+1)
	for i, k := range keep {
		outDims[i] = part.Dim(k - plo)
	}
	outDims[len(keep)] = R
	out := tensor.NewDense(outDims...)
	fl := e.contractPartExtents(out.Data(), part.Data(), factors, R, plo, phi, klo, khi, Lp, Mp, Rtp)
	return out, fl
}

// push returns the grow-only buffer for the next partial-stack slot.
// The traversal order is deterministic, so each slot settles on its
// maximal size after the first call and push allocates nothing in
// steady state. Contractions fully overwrite their output, so the
// buffer is not cleared.
func (e *Engine) push(n int) []float64 {
	if e.sp == len(e.stack) {
		e.stack = append(e.stack, nil) //repro:ignore hotpath-alloc grow-only partial stack, depth <= log2 N; settles after the first traversal
	}
	e.stack[e.sp] = growf(e.stack[e.sp], n)
	buf := e.stack[e.sp]
	e.sp++
	return buf
}

func (e *Engine) pop() { e.sp-- }

// enginePool backs the package-level entry points so concurrent
// callers (e.g. simulated ranks in par) each get a private engine.
var enginePool = sync.Pool{New: func() any { return NewEngine(0) }}

// AllModes computes B(n) for every mode n via a balanced dimension
// tree with the GEMM-based engine at the default worker count. factors
// must all be non-nil (every mode participates in some contraction).
func AllModes(x *tensor.Dense, factors []*tensor.Matrix) *Result {
	return AllModesWorkers(x, factors, 0)
}

// AllModesWorkers is AllModes with an explicit goroutine count (<= 0
// selects the linalg package default). Results are bitwise identical
// for every worker count.
func AllModesWorkers(x *tensor.Dense, factors []*tensor.Matrix, workers int) *Result {
	e := enginePool.Get().(*Engine)
	e.Workers = workers
	res := e.AllModes(x, factors)
	enginePool.Put(e)
	return res
}

// prodDims multiplies the extents of modes [lo, hi) without
// allocating.
func prodDims(x *tensor.Dense, lo, hi int) int {
	p := 1
	for k := lo; k < hi; k++ {
		p *= x.Dim(k)
	}
	return p
}

func contiguousAscending(modes []int) bool {
	if len(modes) == 0 {
		return false
	}
	for i := 1; i < len(modes); i++ {
		if modes[i] != modes[i-1]+1 {
			return false
		}
	}
	return true
}

// growf returns s resized to n, reusing capacity when possible.
//
//repro:ignore hotpath-alloc grow-only workspace primitive; allocates only while capacity still grows
func growf(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// partialRanks runs the per-rank GEMV passes for ranks [r0, r1). tmp
// supplies the two-sided scratch column starting at its front (callers
// hand each worker a disjoint sub-slice). Each rank touches only its
// own output column and is processed in an order fixed by the rank
// alone, so any partition of [0, R) gives bitwise-identical results.
func partialRanks(out, part, kl, kr, tmp []float64, Lp, Mp, Rtp, r0, r1 int) {
	if kl != nil && kr != nil {
		// The per-slab GEMV passes count themselves; the KR-weighted fold
		// adds Rtp accumulate passes of Mp words per rank.
		obs.Axpy((r1-r0)*Rtp, Mp)
	}
	S := Lp * Mp * Rtp
	for r := r0; r < r1; r++ {
		pr := part[r*S : (r+1)*S]
		outcol := out[r*Mp : (r+1)*Mp]
		switch {
		case kl == nil:
			linalg.GemmNN(outcol, pr, kr[r*Rtp:(r+1)*Rtp], Mp, Rtp, 1, 1)
		case kr == nil:
			linalg.GemmTN(outcol, pr, kl[r*Lp:(r+1)*Lp], Lp, Mp, 1, 1)
		default:
			for i := range outcol {
				outcol[i] = 0
			}
			slab := Lp * Mp
			klcol := kl[r*Lp : (r+1)*Lp]
			wcol := tmp[:Mp]
			for t := 0; t < Rtp; t++ {
				linalg.GemmTN(wcol, pr[t*slab:(t+1)*slab], klcol, Lp, Mp, 1, 1)
				krv := kr[t+r*Rtp]
				if krv == 0 { //repro:bitwise exact-zero sparsity skip; krv was stored, never computed
					continue
				}
				for i, v := range wcol {
					outcol[i] += krv * v
				}
			}
		}
	}
}

// partialRanksParallel splits the ranks into contiguous chunks across
// `workers` goroutines, each with its own scratch column from tmp. A
// separate function so its closure never taxes the serial path.
//
//repro:ignore hotpath-alloc goroutine fan-out: the parallel path allocates bookkeeping only
func partialRanksParallel(out, part, kl, kr, tmp []float64, Lp, Mp, Rtp, R, workers int) {
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		lo := w * R / workers
		hi := (w + 1) * R / workers
		go func(w, lo, hi int) {
			defer wg.Done()
			var wtmp []float64
			if kl != nil && kr != nil {
				wtmp = tmp[w*Mp : (w+1)*Mp]
			}
			partialRanks(out, part, kl, kr, wtmp, Lp, Mp, Rtp, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}
