// Package fanout is the one parallel primitive under every engine: a
// process-wide pool of parked helper goroutines that runs the chunks
// of a task.
//
// The caller of Run is slot 0 and claims chunks itself; helpers that
// are parked when the section starts join it as further slots. A
// section waits only for the helpers it recruited, and recruits only
// parked ones, so nested sections (a chunk that calls Run) and
// concurrent ones cannot deadlock, provided no chunk waits on another.
// Which slot runs a chunk varies, so a task whose chunk c writes only
// state owned by c (and scratch owned by its slot) gives results
// bitwise independent of the worker count and of every other caller.
//
// Helpers are spawned on demand, up to the largest worker count ever
// requested minus one, and never exit. Between sections a helper holds
// only its channel and the descriptor of the section it last served,
// which drops its task when the section ends, so a finished task stays
// collectable. Run allocates nothing once the pool has grown, provided
// its task lives in a grow-only workspace or a Free list.
package fanout

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Task is a unit of chunked work. Chunk runs chunk c on the given
// slot (0 <= slot < the section's worker count); it must not wait on
// any other chunk of the same task.
type Task interface {
	Chunk(c, slot int)
}

// section is one Run's state: the task, its chunk queue, the last
// slot a helper took, and the count of recruited helpers still in it.
type section struct {
	task    Task
	n       int64
	next    atomic.Int64
	slots   atomic.Int64
	pending atomic.Int64
}

// helper is one parked goroutine, woken by a section on its own
// channel.
type helper struct {
	wake chan *section
	link *helper // next parked helper
}

var (
	sections Free[section]
	pool     struct {
		mu      sync.Mutex
		idle    *helper // parked helpers, a stack
		helpers int     // helpers spawned so far
	}
)

// Run runs t.Chunk(c, slot) for every c in [0, n) on up to workers
// slots and returns when all chunks are done. workers <= 1 runs every
// chunk inline on slot 0, in order.
func Run(t Task, n, workers int) {
	workers = min(workers, n)
	if workers <= 1 {
		for c := 0; c < n; c++ {
			t.Chunk(c, 0)
		}
		return
	}
	s := sections.Get()
	s.task, s.n = t, int64(n)
	s.next.Store(0)
	s.slots.Store(0)
	if recruit(s, workers-1) > 0 {
		// A woken helper lands in this P's runnext slot, which the
		// other Ps steal from only reluctantly: yield so it starts now.
		runtime.Gosched()
	}
	s.run(0)
	// Join by yielding, not blocking: the helpers are running or
	// runnable and own at most one chunk each by now, and a blocked
	// caller would be woken on a helper's P, draining the runtime's
	// per-P wait-queue caches until they allocate.
	for s.pending.Load() != 0 {
		runtime.Gosched()
	}
	s.task = nil
	sections.Put(s)
}

// recruit hands s to up to k parked helpers, first spawning helpers
// while fewer than k exist, and returns the number recruited. The pool
// lock covers only the bookkeeping.
func recruit(s *section, k int) int {
	pool.mu.Lock()
	for ; pool.helpers < k; pool.helpers++ {
		spawn()
	}
	var taken *helper // linked through link
	n := 0
	for ; n < k && pool.idle != nil; n++ {
		h := pool.idle
		pool.idle, h.link = h.link, taken
		taken = h
	}
	pool.mu.Unlock()
	s.pending.Store(int64(n))
	for h := taken; h != nil; {
		next := h.link
		h.link = nil
		h.wake <- s // a parked helper's channel is empty
		h = next
	}
	return n
}

// spawn parks one more helper. The caller holds pool.mu.
//
//repro:ignore hotpath-alloc grow-only: spawns only while the helper count is below the largest worker count requested minus one
func spawn() {
	h := &helper{wake: make(chan *section, 1), link: pool.idle}
	pool.idle = h
	//repro:worker-pool parked fan-out helpers: each serves the sections handed to it on its own channel, and every section waits for the helpers it recruited
	go h.serve()
}

// serve runs the sections handed to h, each as the next slot, and
// parks h again after each.
func (h *helper) serve() {
	for s := range h.wake {
		s.run(int(s.slots.Add(1)))
		pool.mu.Lock()
		h.link, pool.idle = pool.idle, h
		pool.mu.Unlock()
		s.pending.Add(-1) // the last touch of s
	}
}

// run claims chunks until none is left.
func (s *section) run(slot int) {
	for {
		c := s.next.Add(1) - 1
		if c >= s.n {
			return
		}
		s.task.Chunk(int(c), slot)
	}
}

// Free is a grow-only free list of task descriptors, for callers with
// no workspace to keep one in. Unlike a sync.Pool it never drops an
// entry, so a warmed caller allocates nothing, under -race too. It is
// safe for concurrent use; the zero value is empty.
type Free[T any] struct {
	mu   sync.Mutex
	free []*T // cap(free) is the number of descriptors made
}

// Get returns a free descriptor, allocating one only while more are
// in use at once than ever before.
func (f *Free[T]) Get() *T {
	f.mu.Lock()
	defer f.mu.Unlock()
	k := len(f.free)
	if k == 0 {
		return f.grow()
	}
	t := f.free[k-1]
	f.free = f.free[:k-1]
	return t
}

// grow makes one more descriptor and room to hold every descriptor
// made, so Put never reallocates. The list is empty when it runs.
//
//repro:ignore hotpath-alloc grow-only: allocates only while more descriptors are in use at once than ever before
func (f *Free[T]) grow() *T {
	f.free = make([]*T, 0, cap(f.free)+1)
	return new(T)
}

// Put returns t, which came from Get, to the list. The caller clears
// the references t holds first.
func (f *Free[T]) Put(t *T) {
	f.mu.Lock()
	k := len(f.free)
	f.free = f.free[:k+1]
	f.free[k] = t
	f.mu.Unlock()
}
