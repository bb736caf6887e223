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

// TestTreeALSReusedEngineBitwise: Decompose, DecomposeTree and
// dimtree.AllModesWorkers borrow from one engine pool, and one engine
// passed from run to run, keep their prefix partials, KRP panels and
// partial stacks between runs of other solvers, shapes and worker
// counts, and no run reads what an earlier one left: the three
// solvers on two shapes of different order and two worker counts, run
// in turn twice and then all at once, each give bitwise the results
// (and flops) of a run on a fresh engine.
func TestTreeALSReusedEngineBitwise(t *testing.T) {
	type run struct {
		vals  []float64 // factors or MTTKRPs, then fits
		flops int64
	}
	model := func(m *Model, tr []TraceEntry, flops int64, err error) run {
		if err != nil {
			t.Error(err)
			return run{}
		}
		r := run{flops: flops}
		for _, f := range m.Factors {
			r.vals = append(r.vals, f.Data()...)
		}
		r.vals = append(r.vals, m.Fit)
		for _, e := range tr {
			r.vals = append(r.vals, e.Fit)
		}
		return r
	}
	// Each solver runs on eng, or through its public entry point on a
	// pooled engine when eng is nil.
	solvers := []struct {
		name string
		run  func(eng *dimtree.Engine, x *tensor.Dense, opts Options) run
	}{
		{"DecomposeTree", func(eng *dimtree.Engine, x *tensor.Dense, opts Options) run {
			if eng == nil {
				return model(DecomposeTree(x, opts))
			}
			return model(decompose(eng, x, opts, true))
		}},
		{"Decompose", func(eng *dimtree.Engine, x *tensor.Dense, opts Options) run {
			if eng == nil {
				m, tr, err := Decompose(x, opts)
				return model(m, tr, 0, err)
			}
			m, tr, _, err := decompose(eng, x, opts, false)
			return model(m, tr, 0, err)
		}},
		{"AllModesWorkers", func(eng *dimtree.Engine, x *tensor.Dense, opts Options) run {
			factors := tensor.RandomFactors(opts.Seed, x.Dims(), opts.R)
			var res *dimtree.Result
			if eng == nil {
				res = dimtree.AllModesWorkers(x, factors, opts.Workers)
			} else {
				res = eng.AllModes(x, factors)
			}
			r := run{flops: res.Flops}
			for _, b := range res.B {
				r.vals = append(r.vals, b.Data()...)
			}
			return r
		}},
	}
	same := func(a, b run) bool {
		if a.flops != b.flops || len(a.vals) != len(b.vals) {
			return false
		}
		for i, v := range a.vals {
			if v != b.vals[i] { //repro:bitwise same arithmetic on a reused engine
				return false
			}
		}
		return true
	}
	xs := []*tensor.Dense{tensor.RandomDense(101, 24, 20, 16), tensor.RandomDense(102, 9, 8, 7, 6)}
	ranks := []int{6, 3}
	optsFor := func(s, w int) Options {
		return Options{R: ranks[s], MaxIters: 3, Tol: math.Inf(-1), Seed: 103, Workers: w}
	}
	type key struct{ solver, shape, workers int }
	fresh := map[key]run{}
	for i, sv := range solvers {
		for s, x := range xs {
			for _, w := range []int{1, 2} {
				fresh[key{i, s, w}] = sv.run(dimtree.NewEngine(w), x, optsFor(s, w))
			}
		}
	}
	shared := dimtree.NewEngine(1)
	for round := 0; round < 2; round++ {
		for s, x := range xs {
			for _, w := range []int{1, 2} {
				for i, sv := range solvers {
					opts := optsFor(s, w)
					pooled := sv.run(nil, x, opts)
					shared.Workers = w
					reused := sv.run(shared, x, opts)
					if want := fresh[key{i, s, w}]; !same(pooled, want) || !same(reused, want) {
						t.Fatalf("round %d %s dims %v workers %d: a reused engine's run differs from a fresh engine's",
							round, sv.name, x.Dims(), w)
					}
				}
			}
		}
	}
	var wg sync.WaitGroup
	for k, want := range fresh {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := solvers[k.solver].run(nil, xs[k.shape], optsFor(k.shape, k.workers)); !same(got, want) {
				t.Errorf("concurrent %s dims %v workers %d: differs from a fresh engine's run",
					solvers[k.solver].name, xs[k.shape].Dims(), k.workers)
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
