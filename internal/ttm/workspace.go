package ttm

import (
	"sync"

	"repro/internal/tensor"
)

// Workspace holds every grow-only buffer the TTM engine needs: the
// ping-pong intermediates of tree contractions and truncation passes,
// TreeInto's shapes, plan and partial stack, the gram accumulation
// buckets, and the per-worker gram pack panels.
// Buffers grow monotonically and are reused across calls, so a HOOI
// sweep over one tensor reaches a steady state with zero allocations.
//
// A Workspace is not safe for concurrent use by multiple tree,
// truncation or gram calls; use one per goroutine (or the pool helpers
// below).
type Workspace struct {
	a, b  []float64   // contraction and truncation ping-pong intermediates
	stack [][]float64 // TreeInto's partial tensors, one slot per tree level
	sp    int         // partial-stack depth
	priv  []float64   // (chunks-1) * I*I gram accumulation buckets
	pack  []float64   // workers * gramPanel*I gram pack panels
	bufs  [][]float64 // gram bucket headers, len >= chunks
	dims  []int       // mutable extent vector during a contraction
	ord   []int       // greedy contraction or truncation order
	shape []int       // the walk's shapes: the tensor's extents
	ranks []int       // and the matrices' column counts
	cost  []int       // TreeInto's plan: multiply-adds of each node's subtree
	split []int       // TreeInto's plan: each node's split mode or leafChains
	gram  gramTask    // GramInto's task, set for one call

	views []*tensor.Dense // TruncateInto's headers over a and b, one per step
}

// NewWorkspace returns an empty workspace; buffers are grown on first
// use. Prefer GetWorkspace/PutWorkspace for pooled reuse.
func NewWorkspace() *Workspace { return new(Workspace) }

// ensureGram grows the gram buffers for an I*I = n gram over nbuf
// buckets with packWords words of pack panels.
func (ws *Workspace) ensureGram(n, nbuf, packWords int) {
	ws.pack = grow(ws.pack, packWords)
	if nbuf > 1 {
		ws.priv = grow(ws.priv, (nbuf-1)*n)
	}
	if len(ws.bufs) < nbuf {
		ws.bufs = make([][]float64, nbuf) //repro:ignore hotpath-alloc grow-only bucket headers; settles after the first call
	}
}

// extents loads x's extents into the mutable extent vector and
// returns it.
func (ws *Workspace) extents(x *tensor.Dense) []int {
	N := x.Order()
	ws.dims = growInts(ws.dims, N)
	for k := 0; k < N; k++ {
		ws.dims[k] = x.Dim(k)
	}
	return ws.dims
}

// push returns the next slot of the partial stack grown to n words.
// TreeInto's traversal is fixed by the tensor's shape, so each slot
// settles at its largest size after the first walk and push allocates
// nothing in steady state. Contractions overwrite their output, so the
// slot is not cleared.
func (ws *Workspace) push(n int) []float64 {
	if ws.sp == len(ws.stack) {
		ws.stack = append(ws.stack, nil) //repro:ignore hotpath-alloc grow-only partial stack, depth <= N-2; settles after the first walk
	}
	ws.stack[ws.sp] = grow(ws.stack[ws.sp], n)
	buf := ws.stack[ws.sp]
	ws.sp++
	return buf
}

func (ws *Workspace) pop() { ws.sp-- }

//repro:ignore hotpath-alloc grow-only workspace primitive; allocates only while capacity still grows
func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

//repro:ignore hotpath-alloc grow-only workspace primitive; allocates only while capacity still grows
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

var wsPool = sync.Pool{New: func() any { return new(Workspace) }}

// GetWorkspace fetches a workspace from the shared pool.
func GetWorkspace() *Workspace { return wsPool.Get().(*Workspace) }

// PutWorkspace returns a workspace to the shared pool for reuse.
func PutWorkspace(ws *Workspace) { wsPool.Put(ws) }
