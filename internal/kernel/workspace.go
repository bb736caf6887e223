package kernel

import (
	"sync"

	"repro/internal/linalg"
)

// Workspace holds every buffer the KRP-splitting MTTKRP needs: the
// left and right partial Khatri-Rao products, per-worker GEMM scratch,
// and per-chunk accumulation buckets for the slab reduction. Buffers
// grow monotonically and are reused across calls, so a CP-ALS or HOOI
// iteration that cycles through modes of one tensor reaches a steady
// state with zero allocations.
//
// A Workspace is not safe for concurrent use by multiple MTTKRP calls;
// use one per goroutine (or the pool helpers below).
type Workspace struct {
	krLeft  []float64   // L x R column-major partial KRP of modes < n
	krRight []float64   // Rt x R column-major partial KRP of modes > n
	scratch []float64   // workers * In*R slab GEMM outputs
	priv    []float64   // (chunks-1) * In*R accumulation buckets
	bufs    [][]float64 // bucket headers, len >= chunks
	out64   []float64   // In x R float64 accumulator of the float32 path
	slabs   slabTask    // the interior pass's fanout task, set for one pass
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
	ws.ensure(L, Rt, dims[n], R, linalg.Workers())
	return ws
}

// ensure grows the buffers to fit an (L, In, Rt, R) problem at the
// given worker count. Existing capacity is kept.
func (ws *Workspace) ensure(L, Rt, In, R, workers int) {
	ws.krLeft = grow(ws.krLeft, L*R)
	ws.krRight = grow(ws.krRight, Rt*R)
	ws.ensureScratch(In, Rt, R, workers)
}

// ensureScratch grows only the slab-pass buffers (GEMM scratch and
// accumulation buckets) for an M x R output over Rt slabs — what
// Contract3 needs when the KRP panels live elsewhere.
func (ws *Workspace) ensureScratch(M, Rt, R, workers int) {
	nbuf := interiorChunks
	if nbuf > Rt {
		nbuf = Rt
	}
	if workers < 1 {
		workers = 1
	}
	ws.scratch = grow(ws.scratch, workers*M*R)
	if nbuf > 1 {
		ws.priv = grow(ws.priv, (nbuf-1)*M*R)
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
