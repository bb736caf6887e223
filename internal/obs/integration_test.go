package obs_test

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/tensor"
	"repro/internal/workload"

	"repro/internal/dimtree"
)

// The streaming-model counters are defined at kernel-call granularity,
// so the aggregated totals for the same problem must be identical at
// every worker count — parallelism moves whole counted units between
// slabs, never fractions. (Allocs/Bytes are process-wide and excluded.)
func TestEngineCountersWorkerIndependent(t *testing.T) {
	inst, err := workload.Generate(workload.Spec{Dims: []int{12, 10, 8, 6}, R: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	countWork := func(tot obs.Totals) [3]int64 {
		return [3]int64{tot.WordsRead, tot.WordsWritten, tot.Flops}
	}

	col := obs.New(8)
	obs.Enable(col)
	defer obs.Disable()

	var kernelRef, treeRef [3]int64
	for i, workers := range []int{1, 2, 7} {
		col.Reset()
		b := tensor.NewMatrix(inst.X.Dim(1), 5)
		kernel.FastInto(b, inst.X, inst.Factors, 1, workers, nil)
		got := countWork(col.Totals())
		if i == 0 {
			kernelRef = got
		} else if got != kernelRef {
			t.Errorf("kernel: workers=%d counters %v, want %v", workers, got, kernelRef)
		}
	}
	for i, workers := range []int{1, 2, 7} {
		col.Reset()
		eng := dimtree.NewEngine(workers)
		eng.AllModes(inst.X, inst.Factors)
		got := countWork(col.Totals())
		if i == 0 {
			treeRef = got
		} else if got != treeRef {
			t.Errorf("dimtree: workers=%d counters %v, want %v", workers, got, treeRef)
		}
	}
	if kernelRef == ([3]int64{}) || treeRef == ([3]int64{}) {
		t.Fatalf("instrumentation recorded nothing: kernel %v, tree %v", kernelRef, treeRef)
	}
}

// The kernel's streaming-model flop count must agree with the engine's
// own arithmetic accounting (Result.Flops), tying the new counters to
// the pre-existing ground truth.
func TestDimTreeFlopCountersMatchEngine(t *testing.T) {
	inst, err := workload.Generate(workload.Spec{Dims: []int{9, 8, 7}, R: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	col := obs.New(1)
	obs.Enable(col)
	defer obs.Disable()
	res := dimtree.AllModesWorkers(inst.X, inst.Factors, 1)
	tot := col.Totals()
	// The streaming count includes the KR-weighted interior folds the
	// engine also books, so the two totals agree exactly for 3-way
	// trees (root GEMMs + partial GEMV passes + folds + KRP panels)
	// whose roots are single GEMMs; a chunked prefix root (past one
	// GEMM panel) adds its bucket merge to the streaming count only.
	if tot.Flops != res.Flops {
		t.Fatalf("collector flops %d != engine accounting %d", tot.Flops, res.Flops)
	}
}
