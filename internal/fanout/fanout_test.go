package fanout

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// maxWorkers is the largest worker count any test in this package
// requests, so the pool never holds more than maxWorkers-1 helpers.
const maxWorkers = 8

// countTask counts the runs of each chunk and records any slot at or
// past its worker count. With depth > 0 every chunk runs a nested
// section of its own, at the same worker count, before returning.
type countTask struct {
	t       *testing.T
	workers int
	depth   int
	hits    []atomic.Int32
	badSlot atomic.Int32
}

func newCountTask(t *testing.T, n, workers, depth int) *countTask {
	return &countTask{t: t, workers: workers, depth: depth, hits: make([]atomic.Int32, n)}
}

func (k *countTask) Chunk(c, slot int) {
	if slot < 0 || slot >= max(k.workers, 1) {
		k.badSlot.Store(int32(slot) + 1)
	}
	k.hits[c].Add(1)
	if k.depth > 0 {
		inner := newCountTask(k.t, 5, k.workers, k.depth-1)
		Run(inner, len(inner.hits), k.workers)
		inner.check("nested")
	}
}

// check reports chunks that did not run exactly once and slots out of
// range.
func (k *countTask) check(what string) {
	for c := range k.hits {
		if h := k.hits[c].Load(); h != 1 {
			k.t.Errorf("%s: workers=%d: chunk %d of %d ran %d times", what, k.workers, c, len(k.hits), h)
		}
	}
	if s := k.badSlot.Load(); s != 0 {
		k.t.Errorf("%s: workers=%d: a chunk ran on slot %d", what, k.workers, s-1)
	}
}

// TestRunEveryChunkOnce: every chunk runs exactly once and on a slot
// below the worker count, including n = 0 and n < workers.
func TestRunEveryChunkOnce(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 3, maxWorkers} {
		for _, n := range []int{0, 1, 2, 3, 7, 64, 1000} {
			k := newCountTask(t, n, workers, 0)
			Run(k, n, workers)
			k.check(fmt.Sprintf("n=%d", n))
		}
	}
}

// TestRunInlineOrder: a single-slot section runs its chunks in order
// on slot 0.
func TestRunInlineOrder(t *testing.T) {
	var got []int
	Run(orderTask{&got}, 5, 1)
	for c, v := range got {
		if v != c {
			t.Fatalf("inline section ran chunks in order %v", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("inline section ran %d chunks, want 5", len(got))
	}
}

type orderTask struct{ got *[]int }

func (o orderTask) Chunk(c, slot int) {
	if slot != 0 {
		panic("inline chunk off slot 0")
	}
	*o.got = append(*o.got, c)
}

// TestRunConcurrentNested: eight callers at workers 1, 2, 3 and 8 run
// sections whose chunks run nested sections, two levels deep. Nothing
// deadlocks, every chunk at every level runs exactly once (ci.sh runs
// this under -race), and the helper goroutines the pool added stay
// within the largest worker count minus one.
func TestRunConcurrentNested(t *testing.T) {
	base := runtime.NumGoroutine()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				workers := []int{1, 2, 3, maxWorkers}[(g+i)%4]
				k := newCountTask(t, (g*7+i)%13, workers, 2)
				Run(k, len(k.hits), workers)
				k.check("outer")
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("concurrent nested sections did not finish within a minute")
	}
	// The callers' goroutines may take a moment to exit after Done.
	grown := runtime.NumGoroutine() - base
	for i := 0; i < 1000 && grown > maxWorkers-1; i++ {
		time.Sleep(time.Millisecond)
		grown = runtime.NumGoroutine() - base
	}
	if grown > maxWorkers-1 {
		t.Errorf("%d goroutines more than before the callers ran, want at most %d helpers", grown, maxWorkers-1)
	}
	pool.mu.Lock()
	helpers := pool.helpers
	pool.mu.Unlock()
	if helpers > maxWorkers-1 {
		t.Errorf("pool spawned %d helpers, want at most %d", helpers, maxWorkers-1)
	}
}

// TestRunReleasesTask: a task run at 4 workers is collectable once Run
// returns; no parked helper keeps a reference to it.
func TestRunReleasesTask(t *testing.T) {
	freed := make(chan struct{})
	func() {
		k := newCountTask(t, 64, 4, 0)
		runtime.SetFinalizer(k, func(*countTask) { close(freed) })
		Run(k, len(k.hits), 4)
		k.check("released")
	}()
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-freed:
			return
		default:
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("after 100 GCs a task run at 4 workers is still reachable")
}

type nopTask struct{ hits []int64 }

func (k *nopTask) Chunk(c, _ int) { atomic.AddInt64(&k.hits[c], 1) }

// TestRunZeroAlloc: once the pool has grown, a 2-worker section and a
// Free list round trip allocate nothing.
func TestRunZeroAlloc(t *testing.T) {
	k := &nopTask{hits: make([]int64, 16)}
	Run(k, 16, 2)
	if allocs := testing.AllocsPerRun(100, func() { Run(k, 16, 2) }); allocs != 0 { //repro:bitwise exact allocation count
		t.Errorf("2-worker Run allocates %v objects/op, want 0", allocs)
	}
	var f Free[nopTask]
	f.Put(f.Get())
	if allocs := testing.AllocsPerRun(100, func() { f.Put(f.Get()) }); allocs != 0 { //repro:bitwise exact allocation count
		t.Errorf("Free round trip allocates %v objects/op, want 0", allocs)
	}
}
