package dimtree

// The GEMM-based multi-MTTKRP engine. The balanced dimension tree only
// ever holds *contiguous* mode ranges [lo, hi), each split at its
// midpoint by walk, the one traversal the engine, its prices and the
// CP-ALS sweeps share. In generalized column-major layout that
// contiguity is everything — a node's partial needs no permutation to be contracted:
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
// Every temporary — partial tensors (one slot per tree depth, at most
// log2 N), the dropped-mode KRP panels, the kernel workspace's panels,
// slot scratch and accumulation buckets, and the rank split's fanout
// task — lives in a grow-only workspace owned by the Engine, so repeated
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
	slots [][]float64       // partial tensors, one slot per tree depth
	ranks rankTask          // the partial contraction's fanout task, set for one call
	sweep sweepArgs         // Sweep's operands, set for one call
}

// sweepArgs carries one Sweep call's operands to the walk's visits.
type sweepArgs struct {
	bs      []*tensor.Matrix
	x       *tensor.Dense
	factors []*tensor.Matrix
	R       int
	leaf    func(n int) error
	flops   int64
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
	res.Flops, _ = e.Sweep(res.B, x, factors, R, nil)
}

// Sweep computes B(n) for every mode n into bs[n] (I_n x R) on the
// balanced dimension tree and returns the flops. When leaf is non-nil
// it is called with n as soon as bs[n] holds B(n), and it may
// overwrite factors[n]'s values: the walk runs each contraction in the
// order of an ALS sweep (see walk), so B(n) contracts the modes below
// n with the factors their leaves left and the modes above n with the
// factors passed in. The first error leaf returns stops the sweep
// before any further contraction and is returned. leaf must not start
// another sweep on e. factors must pass tensor.CheckFactors at rank R;
// a warmed engine allocates nothing.
//
//repro:hotpath
func (e *Engine) Sweep(bs []*tensor.Matrix, x *tensor.Dense, factors []*tensor.Matrix, R int, leaf func(n int) error) (int64, error) {
	if r, err := tensor.CheckFactors(x, factors, tensor.AllModes); err != nil || r != R {
		panic(fmt.Sprintf("dimtree: Sweep at rank %d: factors of rank %d (%v)", R, r, err))
	}
	if len(bs) != x.Order() {
		panic(fmt.Sprintf("dimtree: Sweep with %d outputs for an order-%d tensor", len(bs), x.Order()))
	}
	for n, b := range bs {
		if b.Rows() != x.Dim(n) || b.Cols() != R {
			panic(fmt.Sprintf("dimtree: Sweep output %d is %dx%d, want %dx%d", n, b.Rows(), b.Cols(), x.Dim(n), R))
		}
	}
	e.sweep = sweepArgs{bs: bs, x: x, factors: factors, R: R, leaf: leaf}
	err := walk(0, 0, x.Order(), e.visit)
	flops := e.sweep.flops
	e.sweep = sweepArgs{}
	return flops, err
}

// visit runs one contraction of Sweep's walk: the node [lo, hi), the
// tensor at depth 0 and partial slot depth-1 below it, down to the
// child [klo, khi), into bs[klo] for a leaf, which then goes to the
// sweep's leaf, or into slot depth. Slot d holds the last inner node
// formed at depth d, which is the node the walk is descending through.
//
//repro:hotpath
func (e *Engine) visit(depth, lo, hi, klo, khi int) error {
	s := &e.sweep
	var out []float64
	if khi-klo == 1 {
		out = s.bs[klo].Data()
	} else {
		if depth == len(e.slots) {
			e.slots = append(e.slots, nil) //repro:ignore hotpath-alloc grow-only slots, one per depth <= log2 N; settles after the first sweep
		}
		e.slots[depth] = growf(e.slots[depth], prodDims(s.x, klo, khi)*s.R)
		out = e.slots[depth]
	}
	if depth == 0 {
		s.flops += e.contractRoot(out, s.x, s.factors, s.R, klo, khi)
	} else {
		s.flops += e.contractPart(out, e.slots[depth-1], s.x, s.factors, s.R, lo, hi, klo, khi)
	}
	if khi-klo > 1 || s.leaf == nil {
		return nil
	}
	return s.leaf(klo)
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
// the kept range [klo, khi), a prefix or a suffix of it, writing into
// out; mode extents come from the tensor. Per rank r the source slab
// is an (Lp, Mp, Rtp) column-major block with Lp = 1 or Rtp = 1, and
//
//	out(:, r) = sum_{l, t} slab(l, :, t) * kl(l, r) * kr(t, r)
//
// is one GEMV-shaped pass into the blocked kernels (GemmNN for a
// dropped suffix, GemmTN for a dropped prefix). Ranks are split across
// workers; each writes only its own output columns, so results are
// bitwise worker-count independent.
//
//repro:hotpath
func (e *Engine) contractPart(out, part []float64, x *tensor.Dense, factors []*tensor.Matrix, R, plo, phi, klo, khi int) int64 {
	span := obs.Start(obs.PhaseTreePartial)
	defer span.Stop()
	Lp, Mp, Rtp := prodDims(x, plo, klo), prodDims(x, klo, khi), prodDims(x, khi, phi)
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
	workers := min(linalg.ResolveWorkers(e.Workers), R)
	e.ranks = rankTask{out: out, part: part, kl: kl, kr: kr, Lp: Lp, Mp: Mp, Rtp: Rtp, R: R, parts: workers}
	fanout.Run(&e.ranks, workers, workers)
	e.ranks = rankTask{}
	return fl + 2*int64(Lp*Mp*Rtp)*int64(R)
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

// rankTask is contractPart's rank split as a fanout task.
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
