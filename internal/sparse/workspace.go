package sparse

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workspace holds every buffer the CSF MTTKRP kernels need: row-major
// mirrors of the factor matrices (one per tree level), the row-major
// output accumulator, per-chunk private accumulation buckets for the
// tree reduction, the nnz-balanced chunk boundaries, and per-worker
// walker scratch. Buffers grow monotonically and are reused across
// calls, so an ALS sweep that cycles through the modes of one tensor
// reaches a steady state with zero allocations.
//
// A Workspace is not safe for concurrent use by multiple kernel
// calls; use one per goroutine (or the pool helpers below).
type Workspace struct {
	packed  [][]float64 // per level: I_lv x R row-major factor mirror
	acc     []float64   // bucket 0 and final row-major output accumulator
	priv    []float64   // (nbuf-1) * len(acc) private accumulation buckets
	bufs    [][]float64 // bucket headers handed to kernel.ReduceTree
	bounds  []int32     // chunk boundaries over root fibers (nbuf+1 entries)
	stack   []float64   // workers * 2*N*R walker scratch (subtree sums + prefixes)
	walkers []csfWalker // one traversal state per worker

	// Persistent worker pool. Goroutines are spawned once (lazily,
	// up to the worker count in use) and parked on the start channel;
	// each pass sends one walker per extra worker, carrying the pass's
	// tree and this workspace, so the steady state allocates nothing —
	// not even the compiler-generated argument closure a per-pass
	// `go f(args)` spawn would cost. The parked goroutines hold only
	// the channel, so an unreachable workspace is finalized, and its
	// finalizer closes the channel.
	queue   atomic.Int64 // chunk work queue, drained by all workers
	wg      sync.WaitGroup
	start   chan *csfWalker // walkers 1..workers-1 of a pass; closing terminates the pool
	spawned int             // live pool goroutines (they serve walkers 1..spawned)
}

// NewWorkspace returns an empty workspace; buffers grow on first use.
// A workspace must be its own allocation (NewWorkspace, GetWorkspace
// or new), never a field of another struct: the pool's finalizer is
// set on it.
func NewWorkspace() *Workspace { return new(Workspace) }

// ensure grows every buffer for a kernel pass over t at rank R with
// nbuf accumulation buckets of total words each and the given worker
// count. Existing capacity is kept.
//
//repro:ignore hotpath-alloc grow-only workspace sizing; allocates only while capacity still grows
func (ws *Workspace) ensure(t *CSF, R, workers, nbuf, total int) {
	N := len(t.dims)
	if cap(ws.packed) < N {
		ws.packed = make([][]float64, N)
	}
	ws.packed = ws.packed[:N]
	for lv := 0; lv < N; lv++ {
		ws.packed[lv] = growf(ws.packed[lv], t.dims[t.perm[lv]]*R)
	}
	ws.acc = growf(ws.acc, total)
	if nbuf > 1 {
		ws.priv = growf(ws.priv, (nbuf-1)*total)
	}
	if cap(ws.bufs) < nbuf {
		ws.bufs = make([][]float64, 0, nbuf)
	}
	if cap(ws.bounds) < nbuf+1 {
		ws.bounds = make([]int32, nbuf+1)
	}
	ws.bounds = ws.bounds[:nbuf+1]
	ws.stack = growf(ws.stack, workers*2*N*R)
	if cap(ws.walkers) < workers {
		ws.walkers = make([]csfWalker, workers)
	}
	ws.walkers = ws.walkers[:workers]
	for w := range ws.walkers {
		wk := &ws.walkers[w]
		if cap(wk.outs) < N {
			wk.outs = make([][]float64, N)
		}
		wk.outs = wk.outs[:N]
	}
}

//repro:ignore hotpath-alloc grow-only workspace primitive; allocates only while capacity still grows
func growf(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// ensurePool tops up the persistent worker pool so that workers-1
// goroutines are parked on the start channel (the calling goroutine
// always drains as walker 0). Spawning allocates; once the pool has
// grown, passes reuse it allocation-free.
//
//repro:ignore hotpath-alloc pool spawn: allocates only while the pool still grows
func (ws *Workspace) ensurePool(workers int) {
	if ws.start == nil {
		// Room for every token a pass sends: workers-1 < nbuf <= maxChunks.
		ws.start = make(chan *csfWalker, maxChunks)
		runtime.SetFinalizer(ws, (*Workspace).Release)
	}
	for ws.spawned < workers-1 {
		ws.spawned++
		//repro:worker-pool parked CSF workers: woken by start tokens, drained by runChunks' WaitGroup, terminated by Release or the workspace finalizer
		go poolWorker(ws.start)
	}
}

// Release terminates the workspace's persistent worker goroutines.
// The workspace stays usable afterwards — the pool respawns on
// demand. Dropping a workspace without Release is safe: its finalizer
// releases the pool once the workspace is unreachable. Releasing
// explicitly (or through PutWorkspace) ends the goroutines at once.
func (ws *Workspace) Release() {
	if ws.start != nil {
		close(ws.start)
		ws.start = nil
		ws.spawned = 0
		runtime.SetFinalizer(ws, nil)
	}
}

var csfWsPool = sync.Pool{New: func() any { return new(Workspace) }}

// GetWorkspace fetches a CSF workspace from the shared pool.
func GetWorkspace() *Workspace { return csfWsPool.Get().(*Workspace) }

// PutWorkspace releases a workspace's worker pool and returns it to
// the shared pool for reuse (a pool-evicted workspace must not hold
// parked goroutines).
func PutWorkspace(ws *Workspace) {
	ws.Release()
	csfWsPool.Put(ws)
}
