package obs

import (
	"sync"
	"testing"
)

// The counter hot path must not allocate — same contract as the
// kernel's zero-alloc steady state, checked the same way. This covers
// both the enabled and the disabled (no-op default) collector.
func TestCounterHotPathZeroAlloc(t *testing.T) {
	c := New(4)
	Enable(c)
	defer Disable()
	if n := testing.AllocsPerRun(100, func() {
		Add(WordsRead, 64)
		AddWorker(3, Flops, 128)
		Gemm(8, 8, 8)
		KRP(16, 8, 4)
		Axpy(4, 16)
		Copy(32)
		Comm(2, 10, 10)
		sp := Start(PhaseKernel)
		sp.Stop()
	}); n != 0 {
		t.Fatalf("enabled counter hot path allocates %.1f per run, want 0", n)
	}
	Disable()
	if n := testing.AllocsPerRun(100, func() {
		Add(WordsRead, 64)
		Gemm(8, 8, 8)
		sp := Start(PhaseKernel)
		sp.Stop()
	}); n != 0 {
		t.Fatalf("disabled counter hot path allocates %.1f per run, want 0", n)
	}
}

// Aggregated totals must not depend on how updates spread over worker
// slabs: the same logical work reported through 1, 3, or 16 workers
// (including out-of-range indices, which fold) sums identically.
func TestCounterWorkerIndependence(t *testing.T) {
	const updates = 1000
	var want Totals
	ref := New(1)
	for i := 0; i < updates; i++ {
		ref.Add(0, WordsRead, int64(i))
		ref.Add(0, Flops, 2*int64(i))
	}
	want = ref.Totals()

	for _, workers := range []int{1, 3, 16} {
		c := New(workers)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < updates; i += 4 {
					c.Add(i%32-1, WordsRead, int64(i)) // exercises folding and negatives
					c.Add(w, Flops, 2*int64(i))
				}
			}(w)
		}
		wg.Wait()
		got := c.Totals()
		if got.WordsRead != want.WordsRead || got.Flops != want.Flops {
			t.Fatalf("workers=%d: totals %+v, want read=%d flops=%d",
				workers, got, want.WordsRead, want.Flops)
		}
	}
}

// A worker index past the slab count folds into a slab by modulus, as
// New documents: rank 5 of a simulated network lands in slab 1 of a
// 2-slab collector, and a negative index in slab 0.
func TestAddFoldsByModulus(t *testing.T) {
	c := New(2)
	c.Add(5, CommSent, 7)
	c.Add(-3, CommRecv, 4)
	if got := c.slabs[1*slotWords+int(CommSent)]; got != 7 {
		t.Fatalf("slab 1 holds %d of rank 5's words, want 7", got)
	}
	if got := c.slabs[0*slotWords+int(CommRecv)]; got != 4 {
		t.Fatalf("slab 0 holds %d of worker -3's words, want 4", got)
	}
	if tot := c.Totals(); tot.CommSent != 7 || tot.CommRecv != 4 {
		t.Fatalf("totals sent %d recv %d, want 7 and 4", tot.CommSent, tot.CommRecv)
	}
}

// Allocs/Bytes in Totals are process-wide deltas, so they are >= 0 and
// rebased by Reset.
func TestResetRebasesCounters(t *testing.T) {
	c := New(2)
	c.Add(0, WordsRead, 42)
	sp := c.Start(PhaseKRP)
	sp.Stop()
	c.Reset()
	tot := c.Totals()
	if tot.WordsRead != 0 {
		t.Fatalf("WordsRead = %d after Reset", tot.WordsRead)
	}
	if ps := c.PhaseStats(); len(ps) != 0 {
		t.Fatalf("PhaseStats = %v after Reset", ps)
	}
}

// The disabled default never records.
func TestNoopCollectorRecordsNothing(t *testing.T) {
	Disable()
	Add(WordsRead, 1000)
	Gemm(10, 10, 10)
	sp := Start(PhaseKernel)
	sp.Stop()
	if tot := Active().Totals(); tot != (Totals{}) {
		t.Fatalf("noop totals = %+v", tot)
	}
	if Enabled() {
		t.Fatal("Enabled() true with no collector installed")
	}
}

// Phase aggregates count every span, however many are recorded.
func TestPhaseAggregatesSurviveRingWrap(t *testing.T) {
	c := New(1)
	total := 5000
	for i := 0; i < total; i++ {
		sp := c.Start(PhaseGram)
		sp.Stop()
	}
	ps := c.PhaseStats()
	if len(ps) != 1 || ps[0].Phase != "gram" || ps[0].Count != int64(total) {
		t.Fatalf("PhaseStats = %+v, want gram count %d", ps, total)
	}
}

// Span helpers route through the package-level active collector.
func TestHelperSemantics(t *testing.T) {
	c := New(1)
	Enable(c)
	defer Disable()
	Gemm(3, 4, 5)
	KRP(6, 5, 2)
	Axpy(2, 7)
	Copy(9)
	Syrk(4, 6)
	tot := c.Totals()
	wantFlops := int64(2*3*4*5 + 6*2 + 2*2*7 + 4*5*6)
	if tot.Flops != wantFlops {
		t.Fatalf("Flops = %d, want %d", tot.Flops, wantFlops)
	}
	wantRead := int64(3*4 + 4*5 + 5*2 + 2*7 + 9 + 4*6)
	if tot.WordsRead != wantRead {
		t.Fatalf("WordsRead = %d, want %d", tot.WordsRead, wantRead)
	}
	wantWritten := int64(3*5 + 6*2 + 2*7 + 9 + 4*5/2)
	if tot.WordsWritten != wantWritten {
		t.Fatalf("WordsWritten = %d, want %d", tot.WordsWritten, wantWritten)
	}
}
