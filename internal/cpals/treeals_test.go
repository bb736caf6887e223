package cpals

import (
	"math"
	"sync"
	"testing"

	"repro/internal/dimtree"
	"repro/internal/seq"
	"repro/internal/tensor"
)

// The headline property: tree-ALS performs *identical mathematics* to
// plain ALS — every sweep's fit matches to rounding — with far fewer
// operations.
func TestTreeALSMatchesPlainALS(t *testing.T) {
	for _, dims := range [][]int{{6, 5}, {6, 5, 4}, {4, 4, 4, 4}} {
		opts := Options{R: 3, MaxIters: 8, Tol: math.Inf(-1), Seed: 91}
		x := tensor.RandomDense(93, dims...)
		_, plainTrace, err := Decompose(x, opts)
		if err != nil {
			t.Fatal(err)
		}
		model, treeTrace, flops, err := DecomposeTree(x, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(treeTrace) != opts.MaxIters || len(plainTrace) != opts.MaxIters {
			t.Fatalf("dims %v: trace lengths %d and %d, want %d", dims, len(treeTrace), len(plainTrace), opts.MaxIters)
		}
		for i := range plainTrace {
			if math.Abs(treeTrace[i].Fit-plainTrace[i].Fit) > 1e-8 {
				t.Fatalf("dims %v sweep %d: tree fit %v vs plain %v",
					dims, i, treeTrace[i].Fit, plainTrace[i].Fit)
			}
		}
		if flops <= 0 {
			t.Fatal("flops not counted")
		}
		if model.Fit != treeTrace[len(treeTrace)-1].Fit { //repro:bitwise same stored value read twice; bitwise by construction
			t.Fatal("model fit inconsistent with trace")
		}
	}
}

// TestTreeALSReusedEngineBitwise: DecomposeTree's pooled engine, and
// one engine passed from run to run, keep their prefix partials and KRP
// panels between runs of other shapes and worker counts, and no run
// reads what an earlier one left: two shapes of different order and
// two worker counts, run in turn twice and then all at once from four
// goroutines, each give bitwise the factors, fits and flops of a run
// on a fresh engine.
func TestTreeALSReusedEngineBitwise(t *testing.T) {
	type run struct {
		model *Model
		trace []TraceEntry
		flops int64
	}
	decompose := func(t *testing.T, f func() (*Model, []TraceEntry, int64, error)) run {
		t.Helper()
		m, tr, fl, err := f()
		if err != nil {
			t.Fatal(err)
		}
		return run{m, tr, fl}
	}
	same := func(a, b run) bool {
		if a.flops != b.flops || len(a.trace) != len(b.trace) || a.model.Fit != b.model.Fit { //repro:bitwise same arithmetic on a reused engine
			return false
		}
		for i := range a.trace {
			if a.trace[i] != b.trace[i] { //repro:bitwise same arithmetic on a reused engine
				return false
			}
		}
		for k, f := range a.model.Factors {
			for i, v := range f.Data() {
				if v != b.model.Factors[k].Data()[i] { //repro:bitwise same arithmetic on a reused engine
					return false
				}
			}
		}
		return true
	}
	xs := []*tensor.Dense{tensor.RandomDense(101, 24, 20, 16), tensor.RandomDense(102, 9, 8, 7, 6)}
	ranks := []int{6, 3}
	optsFor := func(s, w int) Options {
		return Options{R: ranks[s], MaxIters: 3, Tol: math.Inf(-1), Seed: 103, Workers: w}
	}
	fresh := map[[2]int]run{}
	for s, x := range xs {
		for _, w := range []int{1, 2} {
			fresh[[2]int{s, w}] = decompose(t, func() (*Model, []TraceEntry, int64, error) {
				return decomposeTree(dimtree.NewEngine(w), x, optsFor(s, w))
			})
		}
	}
	shared := dimtree.NewEngine(1)
	for round := 0; round < 2; round++ {
		for s, x := range xs {
			for _, w := range []int{1, 2} {
				opts := optsFor(s, w)
				pooled := decompose(t, func() (*Model, []TraceEntry, int64, error) { return DecomposeTree(x, opts) })
				shared.Workers = w
				reused := decompose(t, func() (*Model, []TraceEntry, int64, error) { return decomposeTree(shared, x, opts) })
				if want := fresh[[2]int{s, w}]; !same(pooled, want) || !same(reused, want) {
					t.Fatalf("round %d dims %v workers %d: a reused engine's run differs from a fresh engine's",
						round, x.Dims(), w)
				}
			}
		}
	}
	var wg sync.WaitGroup
	for key, want := range fresh {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, tr, fl, err := DecomposeTree(xs[key[0]], optsFor(key[0], key[1]))
			if err != nil || !same(run{m, tr, fl}, want) {
				t.Errorf("concurrent dims %v workers %d: differs from a fresh engine's run (err %v)",
					xs[key[0]].Dims(), key[1], err)
			}
		}()
	}
	wg.Wait()
}

func TestTreeALSSavesFlops(t *testing.T) {
	dims := []int{8, 8, 8, 8}
	opts := Options{R: 2, MaxIters: 4, Tol: 0, Seed: 95}
	x := tensor.RandomDense(97, dims...)
	_, trace, flops, err := DecomposeTree(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	sweeps := int64(len(trace))
	plain := sweeps * int64(len(dims)) * seq.RefFlops(x, 2)
	if flops >= plain {
		t.Fatalf("tree ALS %d flops >= plain %d", flops, plain)
	}
	if ratio := float64(plain) / float64(flops); ratio < 2 {
		t.Fatalf("expected at least 2x flop saving for N=4, got %.2fx", ratio)
	}
}

func TestTreeALSRecoversLowRank(t *testing.T) {
	dims := []int{6, 6, 6}
	truth := tensor.RandomFactors(99, dims, 2)
	x := tensor.FromFactors(truth)
	model, _, _, err := DecomposeTree(x, Options{R: 2, MaxIters: 200, Tol: 1e-12, Seed: 101})
	if err != nil {
		t.Fatal(err)
	}
	if model.Fit < 0.9999 {
		t.Fatalf("fit = %v", model.Fit)
	}
}

func TestTreeALSWithNormalization(t *testing.T) {
	dims := []int{5, 5, 5}
	x := tensor.RandomDense(103, dims...)
	opts := Options{R: 2, MaxIters: 6, Tol: math.Inf(-1), Seed: 105, Normalize: true}
	_, plainTrace, err := Decompose(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, treeTrace, _, err := DecomposeTree(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(treeTrace) != opts.MaxIters || len(plainTrace) != opts.MaxIters {
		t.Fatalf("trace lengths %d and %d, want %d", len(treeTrace), len(plainTrace), opts.MaxIters)
	}
	for i := range plainTrace {
		if math.Abs(treeTrace[i].Fit-plainTrace[i].Fit) > 1e-8 {
			t.Fatalf("sweep %d: %v vs %v", i, treeTrace[i].Fit, plainTrace[i].Fit)
		}
	}
}

func TestTreeALSErrors(t *testing.T) {
	x := tensor.RandomDense(1, 4, 4)
	if _, _, _, err := DecomposeTree(x, Options{R: 0}); err == nil {
		t.Fatal("R=0 should error")
	}
	if _, _, _, err := DecomposeTree(tensor.NewDense(3, 3), Options{R: 1}); err == nil {
		t.Fatal("zero tensor should error")
	}
	if _, _, _, err := DecomposeTree(tensor.RandomDense(1, 4), Options{R: 1}); err == nil {
		t.Fatal("order 1 should error")
	}
}
