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
//     layout (the mode-0 unfolding IS the memory layout);
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
	R := checkArgs(x, factors, n)
	b := tensor.NewMatrix(x.Dim(n), R) //repro:ignore hotpath-alloc result allocation is the API; the zero-alloc path is FastInto
	ws := GetWorkspace()
	FastInto(b, x, factors, n, workers, ws)
	PutWorkspace(ws)
	return b
}

// FastInto computes the MTTKRP into b (x.Dim(n) x R, overwritten)
// using the caller's workspace. With a reused workspace the call
// performs no allocations in steady state at any worker count, which
// is what keeps CP-ALS inner iterations allocation-free. ws must not be
// shared between concurrent calls; a nil ws borrows one from the pool.
//
//repro:hotpath
func FastInto(b *tensor.Matrix, x *tensor.Dense, factors []*tensor.Matrix, n, workers int, ws *Workspace) {
	R := checkArgs(x, factors, n)
	In := x.Dim(n)
	if b.Rows() != In || b.Cols() != R {
		panic(fmt.Sprintf("kernel: output is %dx%d, want %dx%d", b.Rows(), b.Cols(), In, R))
	}
	if ws == nil {
		ws = GetWorkspace()
		defer PutWorkspace(ws)
	}
	span := obs.Start(obs.PhaseKernel)
	defer span.Stop()
	N := x.Order()
	L, Rt := 1, 1
	for k := 0; k < n; k++ {
		L *= x.Dim(k)
	}
	for k := n + 1; k < N; k++ {
		Rt *= x.Dim(k)
	}
	workers = linalg.ResolveWorkers(workers)
	ws.ensure(L, Rt, In, R, workers)

	data := x.Data()
	bd := b.Data()
	switch {
	case n == 0:
		// B = X_(0) * KR: the mode-0 unfolding is the memory layout.
		KRPInto(ws.krRight, factors, 1, N, R)
		linalg.GemmNN(bd, data, ws.krRight, In, Rt, R, workers)
	case n == N-1:
		// B = X_flat^T * KL over the (L x I_n) natural reshape.
		KRPInto(ws.krLeft, factors, 0, N-1, R)
		linalg.GemmTN(bd, data, ws.krLeft, L, In, R, workers)
	default:
		KRPInto(ws.krLeft, factors, 0, n, R)
		KRPInto(ws.krRight, factors, n+1, N, R)
		ws.interior(bd, slabTask{data: data, kl: ws.krLeft, kr: ws.krRight, L: L, M: In, Rt: Rt, R: R}, workers)
	}
}

// Contract3 computes the generic KRP-weighted 3-way contraction
//
//	out(i, r) = sum_{l, t} data(l, i, t) * kl(l, r) * kr(t, r)
//
// treating data as an (L, M, Rt) column-major 3-tensor; out is M x R,
// overwritten. kl must be L x R and kr Rt x R, both column-major. A nil
// kl asserts that no left modes are contracted (L must be 1, the
// weight is 1); a nil kr likewise requires Rt == 1. This is the
// substrate shared by the single-mode MTTKRP (M = I_n) and the
// dimension tree's root contractions (M = a product of kept modes):
// the boundary cases are one blocked GEMM over the natural layout, the
// two-sided case runs slab passes accumulated into a fixed number of
// buckets combined by ReduceTree, so results are bitwise independent
// of the worker count. ws supplies scratch (nil borrows a pooled one);
// workers <= 0 selects the linalg default.
//
//repro:hotpath
func Contract3(out, data, kl, kr []float64, L, M, Rt, R, workers int, ws *Workspace) {
	if len(out) < M*R || len(data) < L*M*Rt {
		panic("kernel: Contract3 slice too short")
	}
	switch {
	case kl == nil && kr == nil:
		panic("kernel: Contract3 needs at least one KRP panel")
	case kl == nil:
		if L != 1 {
			panic("kernel: Contract3 nil kl with L > 1")
		}
		linalg.GemmNN(out, data, kr, M, Rt, R, workers)
	case kr == nil:
		if Rt != 1 {
			panic("kernel: Contract3 nil kr with Rt > 1")
		}
		linalg.GemmTN(out, data, kl, L, M, R, workers)
	default:
		workers = linalg.ResolveWorkers(workers)
		if ws == nil {
			ws = GetWorkspace()
			defer PutWorkspace(ws)
		}
		ws.ensureScratch(M, Rt, R, workers)
		ws.interior(out, slabTask{data: data, kl: kl, kr: kr, L: L, M: M, Rt: Rt, R: R}, workers)
	}
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
	MR := t.M * t.R
	bufs := ws.bufs[:nbuf]
	bufs[0] = out[:MR]
	priv := ws.priv[:(nbuf-1)*MR]
	for c := 1; c < nbuf; c++ {
		bufs[c] = priv[(c-1)*MR : c*MR]
	}
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

// KRPInto fills dst with the Khatri-Rao product of factors[lo:hi]
// (all participating, ascending mode order, smallest mode varying
// fastest — matching the tensor layout), a (prod dims) x R
// column-major matrix. Each column is expanded in place: growing the
// product by one mode writes offsets >= the current length first, so
// no temporary is needed. Requires lo < hi and non-nil factors in the
// range.
//
//repro:hotpath
func KRPInto(dst []float64, factors []*tensor.Matrix, lo, hi, R int) {
	rows := 1
	sumRows := 0
	for k := lo; k < hi; k++ {
		rows *= factors[k].Rows()
		sumRows += factors[k].Rows()
	}
	obs.KRP(rows, sumRows, R)
	for r := 0; r < R; r++ {
		col := dst[r*rows : (r+1)*rows]
		f0 := factors[lo].Col(r)
		copy(col, f0)
		cur := len(f0)
		for k := lo + 1; k < hi; k++ {
			fk := factors[k].Col(r)
			for j := len(fk) - 1; j >= 0; j-- {
				v := fk[j]
				out := col[j*cur : j*cur+cur]
				for i, base := range col[:cur] {
					out[i] = base * v
				}
			}
			cur *= len(fk)
		}
	}
}

// checkArgs validates the (tensor, factors, mode) triple and returns
// the rank R. It allocates nothing.
func checkArgs(x *tensor.Dense, factors []*tensor.Matrix, n int) int {
	N := x.Order()
	if len(factors) != N {
		panic(fmt.Sprintf("kernel: %d factors for order-%d tensor", len(factors), N))
	}
	if n < 0 || n >= N {
		panic(fmt.Sprintf("kernel: mode %d out of range [0,%d)", n, N))
	}
	R := -1
	for k, f := range factors {
		if k == n {
			continue
		}
		if f == nil {
			panic(fmt.Sprintf("kernel: factor %d is nil", k))
		}
		if f.Rows() != x.Dim(k) {
			panic(fmt.Sprintf("kernel: factor %d has %d rows, tensor dim is %d", k, f.Rows(), x.Dim(k)))
		}
		if R == -1 {
			R = f.Cols()
		} else if f.Cols() != R {
			panic(fmt.Sprintf("kernel: factor %d has %d cols, want %d", k, f.Cols(), R))
		}
	}
	if R == -1 {
		panic("kernel: MTTKRP needs at least two modes")
	}
	return R
}
