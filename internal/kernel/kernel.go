// Package kernel is the shared-memory MTTKRP execution engine: a
// KRP-splitting kernel in the style of Phan, Tichavský & Cichocki
// ("Fast Alternating LS Algorithms for High Order CANDECOMP/PARAFAC
// Tensor Factorizations", IEEE TSP 2013, Section III-B) running on the
// blocked parallel GEMM of internal/linalg.
//
// For mode n of an order-N tensor in generalized column-major layout,
// the modes split into a left group (k < n, combined extent L) and a
// right group (k > n, combined extent Rt), and the tensor is — with no
// data movement at all — a 3-way array of shape (L, I_n, Rt):
//
//	B(i, r) = sum_{l, t} X(l, i, t) * KL(l, r) * KR(t, r)
//
// where KL and KR are the left/right partial Khatri-Rao products. The
// full J x R Khatri-Rao product of the via-matmul baseline is never
// materialized, and no mode requires a tensor permutation:
//
//   - n == 0:   L = 1, so B = X_(0) * KR — one GEMM over the natural
//     layout (the mode-0 unfolding IS the memory layout); past one
//     GEMM panel, fixed chunks of the contracted index instead, each
//     forming its own KR rows into its own bucket, so the tensor
//     streams once at any worker count;
//   - n == N-1: Rt = 1, so B = X_flat^T * KL — one transposed GEMM,
//     again over the natural layout;
//   - interior: for each of the Rt contiguous (L x I_n) column-major
//     slabs, W_t = X_t^T * KL is a GEMM-shaped pass, and
//     B(:, r) += KR(t, r) * W_t(:, r) folds the slab in. Slabs are
//     independent, so they parallelize across workers with private
//     accumulators combined by a pairwise tree reduction.
//
// Arithmetic drops from the atomic kernel's (N+1)*I*R to ~2*I*R plus
// lower-order partial-KRP terms, and every inner loop is a contiguous
// blocked GEMM. seq.Ref remains the correctness oracle; results agree
// up to floating-point reassociation.
package kernel

import (
	"fmt"

	"repro/internal/fanout"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/simd"
	"repro/internal/tensor"
)

// Fast computes the MTTKRP B(n) = X_(n) * KRP with the KRP-splitting
// engine at the default worker count, using a pooled workspace.
// factors[n] is ignored and may be nil.
//
//repro:hotpath
func Fast(x *tensor.Dense, factors []*tensor.Matrix, n int) *tensor.Matrix {
	return FastWorkers(x, factors, n, 0)
}

// FastWorkers is Fast with an explicit worker count (<= 0 selects
// the linalg package default, itself defaulting to GOMAXPROCS).
func FastWorkers(x *tensor.Dense, factors []*tensor.Matrix, n, workers int) *tensor.Matrix {
	R, err := tensor.CheckFactors(x, factors, n)
	if err != nil {
		panic(err)
	}
	b := tensor.NewMatrix(x.Dim(n), R) //repro:ignore hotpath-alloc result allocation is the API; the zero-alloc path is FastInto
	ws := GetWorkspace()
	FastInto(b, x, factors, n, workers, ws)
	PutWorkspace(ws)
	return b
}

// FastInto computes the MTTKRP into b (x.Dim(n) x R, overwritten)
// using the caller's workspace: the root contraction keeping mode n
// alone. With a reused workspace the call performs no allocations in
// steady state at any worker count, which is what keeps CP-ALS inner
// iterations allocation-free. ws must not be shared between concurrent
// calls; a nil ws borrows one from the pool.
//
//repro:hotpath
func FastInto(b *tensor.Matrix, x *tensor.Dense, factors []*tensor.Matrix, n, workers int, ws *Workspace) {
	R, err := tensor.CheckFactors(x, factors, n)
	if err != nil {
		panic(err)
	}
	In := x.Dim(n)
	if b.Rows() != In || b.Cols() != R {
		panic(fmt.Sprintf("kernel: output is %dx%d, want %dx%d", b.Rows(), b.Cols(), In, R))
	}
	span := obs.Start(obs.PhaseKernel)
	defer span.Stop()
	Contract3(b.Data(), x, factors, n, n+1, R, workers, ws)
}

// Contract3 computes the contraction of x keeping the contiguous mode
// range [lo, hi): viewing x as an (L, M, Rt) column-major 3-tensor
// (L = prod I_0..I_{lo-1}, M = prod I_lo..I_{hi-1}, Rt = prod
// I_hi..I_{N-1}),
//
//	out(i, r) = sum_{l, t} x(l, i, t) * KL(l, r) * KR(t, r)
//
// where KL and KR are the Khatri-Rao products of factors[0:lo] and
// factors[hi:N]; out is M x R, overwritten, and factors[lo:hi] are not
// read. This is the substrate shared by the single-mode MTTKRP (the
// range [n, n+1)) and the dimension tree's root contractions. A kept
// suffix is one blocked GemmTN over the natural layout; a two-sided
// range runs slab passes accumulated into a fixed number of buckets
// combined by ReduceTree; a kept prefix is one GemmNN, or, when the
// view is large and the buckets small (prefixChunked), fixed chunks of
// the contracted index that each form their own KR rows and accumulate
// into a bucket (see prefixTask). Results are bitwise independent of
// the worker count. ws supplies the KRP panels and scratch (nil
// borrows a pooled one); workers <= 0 selects the linalg default.
//
//repro:hotpath
func Contract3(out []float64, x *tensor.Dense, factors []*tensor.Matrix, lo, hi, R, workers int, ws *Workspace) {
	N := x.Order()
	if lo == 0 && hi == N {
		panic("kernel: Contract3 needs at least one contracted mode")
	}
	L, M, Rt := prodDims(x, 0, lo), prodDims(x, lo, hi), prodDims(x, hi, N)
	if len(out) < M*R {
		panic("kernel: Contract3 output too short")
	}
	if ws == nil {
		ws = GetWorkspace()
		defer PutWorkspace(ws)
	}
	workers = linalg.ResolveWorkers(workers)
	ws.ensureRoot(L, M, Rt, R, workers, lo == 0, hi == N)
	data := x.Data()
	switch {
	case lo == 0 && prefixChunked(M, Rt, R):
		ws.prefix(out, data, factors, hi, M, Rt, R, workers)
	case lo == 0:
		// The kept prefix's unfolding is the memory layout.
		KRPInto(ws.krRight, factors, hi, N, R)
		linalg.GemmNN(out, data, ws.krRight, M, Rt, R, workers)
	case hi == N:
		// The kept suffix: out = X_flat^T * KL over the (L x M) reshape.
		KRPInto(ws.krLeft, factors, 0, lo, R)
		linalg.GemmTN(out, data, ws.krLeft, L, M, R, workers)
	default:
		KRPInto(ws.krLeft, factors, 0, lo, R)
		KRPInto(ws.krRight, factors, hi, N, R)
		ws.interior(out, slabTask{data: data, kl: ws.krLeft, kr: ws.krRight, L: L, M: M, Rt: Rt, R: R}, workers)
	}
}

// prodDims multiplies the extents of modes [lo, hi).
func prodDims(x *tensor.Dense, lo, hi int) int {
	p := 1
	for k := lo; k < hi; k++ {
		p *= x.Dim(k)
	}
	return p
}

// slabName tags one interior slab chunk on the flight recorder's
// timeline: chunk counts depend only on interiorChunks and Rt, so slab
// event totals — like the obs counters — are worker-count independent;
// only their thread-row attribution varies.
var slabName = flight.RegisterName("slab")

// interiorChunks is the fixed accumulation-bucket count of the
// two-sided slab kernel. Slab ranges and the ReduceTree association
// depend only on this constant and Rt — never on the worker count — so
// the interior result is bitwise reproducible at any parallelism.
const interiorChunks = 16

// interior runs the split-mode slab passes of t into out (M x R,
// overwritten): the Rt slabs are cut into a fixed set of contiguous
// chunks, each chunk accumulates KR-weighted W_t = X_t^T * KL
// contributions into its own bucket (bucket 0 is out's storage), the
// chunks run as one fanout section on up to `workers` slots, and the
// buckets combine by tree reduction. Chunk c always covers slabs
// [c*Rt/nbuf, (c+1)*Rt/nbuf) and accumulates into bucket c whichever
// slot runs it.
func (ws *Workspace) interior(out []float64, t slabTask, workers int) {
	nbuf := min(interiorChunks, t.Rt)
	bufs := ws.buckets(out, nbuf, t.M*t.R)
	for _, b := range bufs {
		clear(b)
	}
	t.bufs, t.scratch = bufs, ws.scratch
	ws.slabs = t
	workers = min(workers, nbuf)
	fanout.Run(&ws.slabs, nbuf, workers)
	ws.slabs = slabTask{}
	ReduceTree(bufs, workers)
}

// buckets returns nbuf accumulation buckets of MR words each: bucket 0
// is out's storage, the others are slices of priv.
func (ws *Workspace) buckets(out []float64, nbuf, MR int) [][]float64 {
	bufs := ws.bufs[:nbuf]
	bufs[0] = out[:MR]
	priv := ws.priv[:(nbuf-1)*MR]
	for c := 1; c < nbuf; c++ {
		bufs[c] = priv[(c-1)*MR : c*MR]
	}
	return bufs
}

// slabTask is the interior pass as a fanout task; exactly one of data
// and data32 is set.
type slabTask struct {
	bufs          [][]float64
	scratch, data []float64
	data32        []float32
	kl, kr        []float64
	L, M, Rt, R   int
}

// Chunk accumulates chunk c's slabs into bucket c through the slot's
// GEMM scratch.
//
//repro:hotpath
func (t *slabTask) Chunk(c, slot int) {
	nbuf, MR := len(t.bufs), t.M*t.R
	t0, t1 := c*t.Rt/nbuf, (c+1)*t.Rt/nbuf
	wbuf := t.scratch[slot*MR : (slot+1)*MR]
	if t.data32 != nil {
		interiorSlabs32(t.bufs[c], wbuf, t.data32, t.kl, t.kr, t.L, t.M, t.Rt, t.R, t0, t1)
		return
	}
	fr := flight.Rec()
	fr.Begin(flight.AnonPid, slot, slabName)
	interiorSlabs(t.bufs[c], wbuf, t.data, t.kl, t.kr, t.L, t.M, t.Rt, t.R, t0, t1)
	fr.End(flight.AnonPid, slot, slabName)
}

// interiorSlabs accumulates slabs [t0, t1) into acc (In x R).
func interiorSlabs(acc, wbuf, data, krLeft, krRight []float64, L, In, Rt, R, t0, t1 int) {
	// The per-slab GEMMs count themselves; the KR-weighted fold adds
	// R axpy passes of In words per slab (zero-skips counted anyway —
	// the streaming model reads the column to know it).
	obs.Axpy((t1-t0)*R, In)
	slab := L * In
	for t := t0; t < t1; t++ {
		xt := data[t*slab : (t+1)*slab]
		linalg.GemmTN(wbuf, xt, krLeft, L, In, R, 1)
		for r := 0; r < R; r++ {
			krv := krRight[t+r*Rt]
			if krv == 0 { //repro:bitwise exact-zero sparsity skip; krv was stored, never computed
				continue
			}
			simd.Axpy(acc[r*In:(r+1)*In], wbuf[r*In:(r+1)*In], krv)
		}
	}
}

// prefixChunked reports whether the kept-prefix root of an M x Rt
// view at rank R runs on fixed accumulation buckets (prefix) instead of
// one GemmNN: the view exceeds one GEMM panel and the buckets fit in
// one. GemmNN hands each worker its own output columns, so every
// worker streams all of X; the chunks split the contracted index
// instead, so X streams once in total at any worker count and the KR
// panel forms in parallel — Algorithm 3's stationary tensor, applied
// inside one node. Small views (cp-grid's 32^3 local blocks) keep the
// single GEMM and its bits.
func prefixChunked(M, Rt, R int) bool {
	kc, mc := linalg.BlockSizes()
	return M*Rt > kc*mc && min(interiorChunks, Rt)*M*R <= kc*mc
}

// prefix runs the chunked kept-prefix root into out (M x R,
// overwritten). Chunk c of nbuf covers the contracted rows
// [c*Rt/nbuf, (c+1)*Rt/nbuf): it forms those rows of the Khatri-Rao
// product of factors[hi:], row-major, in its slot's scratch and
// contracts its contiguous columns of the M x Rt unfolding against them
// into bucket c (bucket 0 is out's storage); the chunks run as one
// fanout section and ReduceTree merges the buckets. Chunk ranges,
// bucket contents and the merge depend on the shape only.
func (ws *Workspace) prefix(out, data []float64, factors []*tensor.Matrix, hi, M, Rt, R, workers int) {
	nbuf := min(interiorChunks, Rt)
	bufs := ws.buckets(out, nbuf, M*R)
	sumRows := 0
	for _, f := range factors[hi:] {
		sumRows += f.Rows()
	}
	// The panel is formed chunk by chunk but counted once, as KRPInto
	// counts it; each chunk's GEMM counts itself.
	obs.KRP(Rt, sumRows, R)
	ws.roots = prefixTask{bufs: bufs, scratch: ws.scratch, data: data, factors: factors,
		hi: hi, M: M, Rt: Rt, R: R, rows: (Rt + nbuf - 1) / nbuf}
	workers = min(workers, nbuf)
	fanout.Run(&ws.roots, nbuf, workers)
	ws.roots = prefixTask{}
	ReduceTree(bufs, workers)
}

// prefixTask is the chunked kept-prefix root as a fanout task; each
// slot owns rows*R words of scratch for its chunk's KR rows.
type prefixTask struct {
	bufs               [][]float64
	scratch, data      []float64
	factors            []*tensor.Matrix
	hi, M, Rt, R, rows int
}

// Chunk forms chunk c's KR rows, row-major, in the slot's scratch and
// contracts chunk c's columns of X against them into bucket c. GemmNT
// reads each k-step's R coefficients from one contiguous row (the 8x16
// tile broadcasts them from there), and it gives every element the
// arithmetic GemmNN gives it over the column-major rows, so the bucket
// holds GemmNN's bits.
//
//repro:hotpath
func (t *prefixTask) Chunk(c, slot int) {
	nbuf := len(t.bufs)
	t0, t1 := c*t.Rt/nbuf, (c+1)*t.Rt/nbuf
	k := t1 - t0
	kr := t.scratch[slot*t.rows*t.R:][:k*t.R]
	krpRowsT(kr, t.factors, t.hi, len(t.factors), t.R, t0)
	linalg.GemmNT(t.bufs[c], t.data[t0*t.M:t1*t.M], kr, t.M, k, t.R, 1)
}

// krpRowsT fills dst with rows [t0, t0+len(dst)/R) of the Khatri-Rao
// product of factors[lo:hi] row-major: the entries krpRows forms, entry
// (t, r) at dst[(t-t0)*R+r]. Row t is row t mod P of the product over
// factors[lo:hi-1] (P rows) times row t / P of the last factor, entry
// by entry. Columns are walked in the outer loop, so every factor read
// is contiguous and the strided writes stay within one block of rows.
func krpRowsT(dst []float64, factors []*tensor.Matrix, lo, hi, R, t0 int) {
	last := factors[hi-1]
	n := len(dst) / R
	if hi-lo == 1 {
		for r := 0; r < R; r++ {
			for q, v := range last.Col(r)[t0 : t0+n] {
				dst[q*R+r] = v
			}
		}
		return
	}
	P := 1
	for _, f := range factors[lo : hi-1] {
		P *= f.Rows()
	}
	for len(dst) > 0 {
		i, v := t0%P, t0/P
		seg := dst[:min(P-i, len(dst)/R)*R]
		rows := len(seg) / R
		if hi-lo == 2 {
			for r := 0; r < R; r++ {
				w := last.At(v, r)
				for q, x := range factors[lo].Col(r)[i : i+rows] {
					seg[q*R+r] = x * w
				}
			}
		} else {
			krpRowsT(seg, factors, lo, hi-1, R, i)
			for r := 0; r < R; r++ {
				w := last.At(v, r)
				for q := r; q < len(seg); q += R {
					seg[q] *= w
				}
			}
		}
		dst, t0 = dst[len(seg):], t0+rows
	}
}

// krpRows fills dst, a (t1-t0) x R column-major block, with rows
// [t0, t1) of the Khatri-Rao product of factors[lo:hi]. Entry (t, r)
// is the product of row i_k of factors[k]'s column r over the modes of
// t's multi-index, multiplied left to right from mode lo, so any row
// range of the panel has the same bits as the whole panel's rows.
func krpRows(dst []float64, factors []*tensor.Matrix, lo, hi, R, t0, t1 int) {
	n := t1 - t0
	for r := 0; r < R; r++ {
		krpColRows(dst[r*n:(r+1)*n], factors, lo, hi, r, t0)
	}
}

// krpColRows fills col with rows [t0, t0+len(col)) of column r of the
// Khatri-Rao product of factors[lo:hi]: row t is row t mod P of the
// product over factors[lo:hi-1] (P rows) times row t / P of the last
// factor.
func krpColRows(col []float64, factors []*tensor.Matrix, lo, hi, r, t0 int) {
	last := factors[hi-1].Col(r)
	if hi-lo == 1 {
		copy(col, last[t0:])
		return
	}
	P := 1
	for _, f := range factors[lo : hi-1] {
		P *= f.Rows()
	}
	for len(col) > 0 {
		i := t0 % P
		seg := col[:min(P-i, len(col))]
		krpColRows(seg, factors, lo, hi-1, r, i)
		v := last[t0/P]
		for q, base := range seg {
			seg[q] = base * v
		}
		col, t0 = col[len(seg):], t0+len(seg)
	}
}

// KRPInto fills dst with the Khatri-Rao product of factors[lo:hi]
// (all participating, ascending mode order, smallest mode varying
// fastest — matching the tensor layout), a (prod dims) x R
// column-major matrix: krpRows over every row. Requires lo < hi and
// non-nil factors in the range.
//
//repro:hotpath
func KRPInto(dst []float64, factors []*tensor.Matrix, lo, hi, R int) {
	rows, sumRows := 1, 0
	for _, f := range factors[lo:hi] {
		rows *= f.Rows()
		sumRows += f.Rows()
	}
	obs.KRP(rows, sumRows, R)
	krpRows(dst, factors, lo, hi, R, 0, rows)
}
