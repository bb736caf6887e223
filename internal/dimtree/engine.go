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
//     kernel.Contract3: one blocked GemmTN for suffixes, the
//     slab-splitting interior kernel for two-sided ranges, and for
//     prefixes (the natural unfolding IS the layout) one GemmNN — or,
//     once the M x Rt view exceeds a GEMM panel while the buckets fit
//     in one, fixed chunks of the contracted index, each forming its
//     own rows of the KR panel and contracting its own columns of X
//     into its own bucket, so X streams once at any worker count;
//   - a partial contraction shares the rank index r between the source
//     and the dropped factors, so it is R independent GEMV-shaped
//     passes: per rank, the partial's slab is an (L', M', Rt')
//     column-major block and the kept result is slab * kr_r (dropped
//     suffix) or slab^T * kl_r (dropped prefix), each a call into the
//     blocked linalg kernels. Ranks split into contiguous ranges, one
//     chunk of a fanout section each, with disjoint output columns.
//
// Every temporary — partial tensors (a stack, depth <= log2 N), the
// dropped-mode KRP panels, the kernel workspace's panels, slot scratch
// and accumulation buckets, and the rank split's fanout task — lives
// in a grow-only workspace owned by the Engine, so repeated
// traversals allocate nothing in steady state at any worker count.
// Results are bitwise independent of the worker count: the boundary
// GEMMs compute each output element in a partition-invariant order,
// rank splitting only moves whole output columns between slots, and
// the interior kernel and the chunked prefix accumulate into a fixed
// bucket count combined by kernel.ReduceTree. seq.Ref is the
// correctness oracle.

import (
	"fmt"
	"sync"

	"repro/internal/fanout"
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

	kws   *kernel.Workspace // Contract3's KRP panels, slot scratch and buckets
	kl    []float64         // a partial's dropped-prefix KRP panel
	kr    []float64         // a partial's dropped-suffix KRP panel
	stack [][]float64       // partial-tensor slots, stack discipline
	sp    int
	ranks rankTask     // the partial contraction's fanout task, set for one call
	held  [2][]float64 // the caller-held partials (Held)
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
// any Workers the call performs no allocations, which is what keeps
// gradient-CP and multi-MTTKRP inner loops allocation-free.
//
//repro:hotpath
func (e *Engine) AllModesInto(res *Result, x *tensor.Dense, factors []*tensor.Matrix) {
	R, err := tensor.CheckFactors(x, factors, tensor.AllModes)
	if err != nil {
		panic(err)
	}
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

// descend splits the partial holding modes [lo, hi) at its midpoint.
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
	if lo == 0 && hi == N {
		// Nothing dropped: the empty product broadcasts X across the R
		// rank columns.
		obs.Copy(M * R)
		for r := 0; r < R; r++ {
			copy(out[r*M:(r+1)*M], x.Data())
		}
		return int64(M) * int64(R)
	}
	kernel.Contract3(out, x, factors, lo, hi, R, e.Workers, e.kws)
	// The dropped sides' KRP panels, then the contraction itself.
	var fl int64
	if lo > 0 {
		fl += int64(L) * int64(R)
	}
	if hi < N {
		fl += int64(Rt) * int64(R)
	}
	fl += 2 * int64(L) * int64(M) * int64(Rt) * int64(R)
	if lo > 0 && hi < N {
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

// contractPartExtents is the rank-split partial contraction. It drops
// a prefix or a suffix of the partial's modes, never both: per rank r
// the source slab is an (Lp, Mp, Rtp) column-major block with Lp = 1
// or Rtp = 1, and
//
//	out(:, r) = sum_{l, t} slab(l, :, t) * kl(l, r) * kr(t, r)
//
// is one GEMV-shaped pass into the blocked kernels (GemmNN for a
// dropped suffix, GemmTN for a dropped prefix). Ranks are split across
// workers; each writes only its own output columns, so results are
// bitwise worker-count independent.
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
		// Nothing dropped: the contraction is the identity.
		obs.Copy(S * R)
		copy(out[:S*R], part[:S*R])
		return fl + int64(S)*int64(R)
	}
	workers := min(linalg.ResolveWorkers(e.Workers), R)
	e.ranks = rankTask{out: out, part: part, kl: kl, kr: kr, Lp: Lp, Mp: Mp, Rtp: Rtp, R: R, parts: workers}
	fanout.Run(&e.ranks, workers, workers)
	e.ranks = rankTask{}
	return fl + 2*int64(S)*int64(R)
}

// ContractTensorInto computes the partial MTTKRP keeping the
// contiguous mode range [lo, hi) directly from the tensor,
//
//	T(i_lo..i_{hi-1}, r) = sum over the other modes of
//	                       X(i) * prod_{k < lo or k >= hi} A(k)(i_k, r),
//
// into out (prod I_lo..I_{hi-1} x R words, column-major with the rank
// index last, overwritten) and returns the flop count.
func (e *Engine) ContractTensorInto(out []float64, x *tensor.Dense, factors []*tensor.Matrix, R, lo, hi int) int64 {
	if lo < 0 || lo >= hi || hi > x.Order() {
		panic(fmt.Sprintf("dimtree: keep [%d,%d) out of range for order-%d tensor", lo, hi, x.Order()))
	}
	if len(out) < prodDims(x, lo, hi)*R {
		panic("dimtree: ContractTensorInto output too short")
	}
	return e.contractRoot(out, x, factors, R, lo, hi)
}

// ContractPartialInto contracts a partial holding the mode range
// [plo, plo+part.Order()-1) (its last dimension is r) down to a prefix
// or a suffix [klo, khi) of that range into out (the kept extents
// times R words, overwritten; it must not overlap part) and returns
// the flop count.
func (e *Engine) ContractPartialInto(out []float64, part *tensor.Dense, plo int, factors []*tensor.Matrix, R, klo, khi int) int64 {
	phi := plo + part.Order() - 1
	if klo < plo || klo >= khi || khi > phi || (klo > plo && khi < phi) {
		panic(fmt.Sprintf("dimtree: keep [%d,%d) not a prefix or suffix of modes [%d,%d)", klo, khi, plo, phi))
	}
	Lp, Mp, Rtp := 1, 1, 1
	for k := plo; k < phi; k++ {
		d := part.Dim(k - plo)
		switch {
		case k < klo:
			Lp *= d
		case k < khi:
			Mp *= d
		default:
			Rtp *= d
		}
	}
	if len(out) < Mp*R {
		panic("dimtree: ContractPartialInto output too short")
	}
	return e.contractPartExtents(out, part.Data(), factors, R, plo, phi, klo, khi, Lp, Mp, Rtp)
}

// Held returns the engine's held buffer i (0 or 1) resized to n words,
// grow-only like its KRP panels: scratch for partials the caller keeps
// between contractions, such as the two alternating prefix partials of
// a CP-ALS sweep. The contents are whatever the last user left, and
// every contraction overwrites its output. A later Held(i, ...) call
// may move the buffer, so a caller takes both sizes it needs at once.
func (e *Engine) Held(i, n int) []float64 {
	e.held[i] = growf(e.held[i], n)
	return e.held[i]
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

// enginePool lends engines to the package-level entry points and,
// through GetEngine, to the CP-ALS solvers, so concurrent callers (e.g.
// simulated ranks) each get a private engine. An engine put back keeps
// its grown buffers for the next borrower; the pool drops it at
// garbage collection.
var enginePool = sync.Pool{New: func() any { return NewEngine(0) }}

// GetEngine fetches an engine from the shared pool. Its Workers is
// whatever the last borrower set, so the caller sets it.
func GetEngine() *Engine { return enginePool.Get().(*Engine) }

// PutEngine returns an engine to the shared pool for reuse.
func PutEngine(e *Engine) { enginePool.Put(e) }

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
	e := GetEngine()
	e.Workers = workers
	res := e.AllModes(x, factors)
	PutEngine(e)
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

// growf returns s resized to n, reusing capacity when possible.
//
//repro:ignore hotpath-alloc grow-only workspace primitive; allocates only while capacity still grows
func growf(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// rankTask is contractPartExtents' rank split as a fanout task.
type rankTask struct {
	out, part, kl, kr     []float64
	Lp, Mp, Rtp, R, parts int
}

// Chunk runs the per-rank GEMV passes of ranks [c*R/parts,
// (c+1)*R/parts). Each rank touches only its own output column and is
// processed in an order fixed by the rank alone, so any partition of
// [0, R) gives bitwise-identical results.
//
//repro:hotpath
func (t *rankTask) Chunk(c, _ int) {
	out, part, kl, kr, Lp, Mp, Rtp := t.out, t.part, t.kl, t.kr, t.Lp, t.Mp, t.Rtp
	r0, r1 := c*t.R/t.parts, (c+1)*t.R/t.parts
	S := Lp * Mp * Rtp
	for r := r0; r < r1; r++ {
		pr := part[r*S : (r+1)*S]
		outcol := out[r*Mp : (r+1)*Mp]
		if kl == nil {
			linalg.GemmNN(outcol, pr, kr[r*Rtp:(r+1)*Rtp], Mp, Rtp, 1, 1)
		} else {
			linalg.GemmTN(outcol, pr, kl[r*Lp:(r+1)*Lp], Lp, Mp, 1, 1)
		}
	}
}
