package kernel

import (
	"sync"

	"repro/internal/linalg"
)

// Workspace holds every buffer the KRP-splitting MTTKRP needs: the
// left and right partial Khatri-Rao products, per-slot scratch (slab
// GEMM outputs, or a chunked prefix root's KR rows), and per-chunk
// accumulation buckets for the slab and prefix reductions. Buffers
// grow monotonically and are reused across calls, so a CP-ALS or HOOI
// iteration that cycles through modes of one tensor reaches a steady
// state with zero allocations.
//
// A Workspace is not safe for concurrent use by multiple MTTKRP calls;
// use one per goroutine (or the pool helpers below).
type Workspace struct {
	krLeft  []float64   // L x R column-major partial KRP of modes < n
	krRight []float64   // Rt x R column-major partial KRP of modes > n
	scratch []float64   // per-slot slab GEMM outputs or KR rows
	priv    []float64   // (chunks-1) * M*R accumulation buckets
	bufs    [][]float64 // bucket headers, len >= chunks
	out64   []float64   // In x R float64 accumulator of the float32 path
	slabs   slabTask    // the interior pass's fanout task, set for one pass
	roots   prefixTask  // the chunked prefix root's fanout task, set for one call
}

// NewWorkspace returns a workspace pre-sized for mode n of a tensor
// with the given dimensions and rank R at the default worker count, so
// the first FastInto call already allocates nothing.
func NewWorkspace(dims []int, R, n int) *Workspace {
	L, Rt := 1, 1
	for k := 0; k < n; k++ {
		L *= dims[k]
	}
	for k := n + 1; k < len(dims); k++ {
		Rt *= dims[k]
	}
	ws := new(Workspace)
	ws.ensureRoot(L, dims[n], Rt, R, linalg.Workers(), n == 0, n == len(dims)-1)
	return ws
}

// ensureRoot grows the buffers Contract3 uses for the root over an
// (L, M, Rt) view that keeps a prefix (no left panel), a suffix (no
// right panel), or neither. Existing capacity is kept.
func (ws *Workspace) ensureRoot(L, M, Rt, R, workers int, prefix, suffix bool) {
	switch {
	case prefix && prefixChunked(M, Rt, R):
		nbuf := min(interiorChunks, Rt)
		rows := (Rt + nbuf - 1) / nbuf
		ws.scratch = grow(ws.scratch, min(workers, nbuf)*rows*R)
		ws.ensureBuckets(nbuf, M*R)
	case prefix:
		ws.krRight = grow(ws.krRight, Rt*R)
	case suffix:
		ws.krLeft = grow(ws.krLeft, L*R)
	default:
		ws.ensure(L, Rt, M, R, workers)
	}
}

// ensure grows both KRP panels and the slab-pass buffers to fit an
// (L, In, Rt, R) problem at the given worker count — what the
// two-sided root and every mode of the float32 path use. Existing
// capacity is kept.
func (ws *Workspace) ensure(L, Rt, In, R, workers int) {
	ws.krLeft = grow(ws.krLeft, L*R)
	ws.krRight = grow(ws.krRight, Rt*R)
	ws.scratch = grow(ws.scratch, max(workers, 1)*In*R)
	ws.ensureBuckets(min(interiorChunks, Rt), In*R)
}

// ensureBuckets grows the private accumulation buckets and their
// headers for nbuf buckets of MR words (bucket 0 is the caller's
// output).
func (ws *Workspace) ensureBuckets(nbuf, MR int) {
	if nbuf > 1 {
		ws.priv = grow(ws.priv, (nbuf-1)*MR)
	}
	if len(ws.bufs) < nbuf {
		ws.bufs = make([][]float64, nbuf) //repro:ignore hotpath-alloc grow-only bucket headers; settles after the first call
	}
}

//repro:ignore hotpath-alloc grow-only workspace primitive; allocates only while capacity still grows
func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

var wsPool = sync.Pool{New: func() any { return new(Workspace) }}

// GetWorkspace fetches a workspace from the shared pool.
func GetWorkspace() *Workspace { return wsPool.Get().(*Workspace) }

// PutWorkspace returns a workspace to the shared pool for reuse.
func PutWorkspace(ws *Workspace) { wsPool.Put(ws) }
