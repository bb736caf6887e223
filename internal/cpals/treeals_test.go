package cpals

import (
	"math"
	"testing"

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
