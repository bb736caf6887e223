package dimtree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/costmodel"
	"repro/internal/memsim"
	"repro/internal/seq"
	"repro/internal/tensor"
)

func TestAllModesMatchesRef(t *testing.T) {
	for _, dims := range [][]int{
		{4, 5},
		{3, 4, 5},
		{2, 3, 4, 3},
		{2, 2, 3, 2, 2},
	} {
		R := 3
		x := tensor.RandomDense(7, dims...)
		fs := tensor.RandomFactors(9, dims, R)
		res := AllModes(x, fs)
		if len(res.B) != len(dims) {
			t.Fatalf("dims %v: got %d outputs", dims, len(res.B))
		}
		for n := range dims {
			want := seq.Ref(x, fs, n)
			if !res.B[n].EqualApprox(want, 1e-9) {
				t.Fatalf("dims %v mode %d: mismatch %v", dims, n, res.B[n].MaxAbsDiff(want))
			}
		}
	}
}

// The whole point: for N >= 3 the tree performs fewer operations than
// N independent atomic MTTKRPs, increasingly so with N.
func TestTreeSavesFlops(t *testing.T) {
	prevRatio := 1.0
	for _, N := range []int{3, 4, 5} {
		dims := make([]int, N)
		for i := range dims {
			dims[i] = 6
		}
		R := 4
		x := tensor.RandomDense(11, dims...)
		fs := tensor.RandomFactors(13, dims, R)
		res := AllModes(x, fs)
		naive := NaiveFlops(dims, R)
		if res.Flops >= naive {
			t.Fatalf("N=%d: tree flops %d >= naive %d", N, res.Flops, naive)
		}
		ratio := float64(res.Flops) / float64(naive)
		if ratio >= prevRatio {
			t.Fatalf("N=%d: savings ratio %.3f did not improve on %.3f", N, ratio, prevRatio)
		}
		prevRatio = ratio
	}
}

func TestN2BothLeavesFromRoot(t *testing.T) {
	dims := []int{5, 7}
	x := tensor.RandomDense(17, dims...)
	fs := tensor.RandomFactors(19, dims, 2)
	res := AllModes(x, fs)
	for n := 0; n < 2; n++ {
		if !res.B[n].EqualApprox(seq.Ref(x, fs, n), 1e-9) {
			t.Fatalf("N=2 mode %d mismatch", n)
		}
	}
}

func TestFlopsPositiveAndCounted(t *testing.T) {
	dims := []int{4, 4, 4}
	x := tensor.RandomDense(23, dims...)
	fs := tensor.RandomFactors(29, dims, 2)
	res := AllModes(x, fs)
	if res.Flops <= 0 {
		t.Fatal("flops not counted")
	}
	// Root contractions alone cost 2 * I*R*(drop+1); the total must
	// exceed that.
	if res.Flops < 2*64*2*2 {
		t.Fatalf("flops %d implausibly low", res.Flops)
	}
}

func TestPanics(t *testing.T) {
	x := tensor.RandomDense(1, 4, 4)
	fs := tensor.RandomFactors(2, []int{4, 4}, 2)
	for _, f := range []func(){
		func() { AllModes(x, fs[:1]) },
		func() { AllModes(x, []*tensor.Matrix{nil, fs[1]}) },
		func() { AllModes(x, []*tensor.Matrix{fs[0], tensor.NewMatrix(5, 2)}) },
		func() { AllModes(x, []*tensor.Matrix{fs[0], tensor.NewMatrix(4, 3)}) },
		// Sweep: too few outputs, a wrong output shape, a wrong rank.
		func() { _, _ = NewEngine(1).Sweep(fs[:1], x, fs, 2, nil) },
		func() { _, _ = NewEngine(1).Sweep([]*tensor.Matrix{fs[0], tensor.NewMatrix(4, 3)}, x, fs, 2, nil) },
		func() { _, _ = NewEngine(1).Sweep(fs, x, fs, 3, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// TestAllModesCostMatchesEngineFlops: the planner's price of a sweep
// charges exactly the flops the engine counts, on random shapes of
// orders 2-6.
func TestAllModesCostMatchesEngineFlops(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	e := NewEngine(1)
	for i := 0; i < 300; i++ {
		dims := make([]int, 2+rng.Intn(5))
		for k := range dims {
			dims[k] = 1 + rng.Intn(6)
		}
		R := 1 + rng.Intn(5)
		x := tensor.RandomDense(int64(i), dims...)
		res := e.AllModes(x, tensor.RandomFactors(int64(i+1), dims, R))
		if c := AllModesCost(dims, R); c.Flops != float64(res.Flops) { //repro:bitwise integer-valued counts below 2^53
			t.Fatalf("dims %v R %d: priced %.0f flops, the engine counted %d", dims, R, c.Flops, res.Flops)
		}
	}
}

// TestTreeBeatsIndependentAtHighOrder: the dimension tree's raison
// d'être. At order 5 the tree reuses partials across modes, so its
// price does strictly less arithmetic than N independent kernels —
// the ordering that makes the planner pick the tree for large sweeps.
func TestTreeBeatsIndependentAtHighOrder(t *testing.T) {
	tree := AllModesCost([]int{32, 32, 32, 32, 32}, 16)
	ind := costmodel.CubicalModel(5, 32, 16).FastAllModesCost()
	if tree.Flops >= ind.Flops {
		t.Errorf("tree flops %.3g not below independent flops %.3g", tree.Flops, ind.Flops)
	}
}

func TestTreeAllModesOrder2(t *testing.T) {
	c := AllModesCost([]int{128, 128}, 8)
	if c.Flops <= 0 || c.Words <= 0 {
		t.Fatalf("degenerate order-2 tree cost: %+v", c)
	}
}

// The communication claim (Section VII: "save both communication and
// computation"): under the streaming model, the tree's words approach
// 2/N of the independent cost as N grows (tensor reads dominate).
func TestCommEstimateTreeWins(t *testing.T) {
	prevRatio := 1.0
	for _, N := range []int{3, 4, 5, 6} {
		dims := make([]int, N)
		for i := range dims {
			dims[i] = 8
		}
		tree, indep := CommEstimate(dims, 2)
		if tree >= indep {
			t.Fatalf("N=%d: tree %d >= independent %d", N, tree, indep)
		}
		ratio := float64(tree) / float64(indep)
		if ratio >= prevRatio {
			t.Fatalf("N=%d: comm ratio %.3f did not improve on %.3f", N, ratio, prevRatio)
		}
		prevRatio = ratio
	}
	// Deep tree: ratio should be within shouting distance of 2/N.
	dims := []int{8, 8, 8, 8, 8, 8}
	tree, indep := CommEstimate(dims, 2)
	ratio := float64(tree) / float64(indep)
	if ratio > 2.0/6+0.15 {
		t.Fatalf("N=6 ratio %.3f far above 2/N", ratio)
	}
}

func TestCommEstimateN2(t *testing.T) {
	tree, indep := CommEstimate([]int{16, 16}, 2)
	if tree <= 0 || indep <= 0 {
		t.Fatal("estimates must be positive")
	}
	// For N=2 both read the tensor twice; no asymptotic saving.
	if tree > indep {
		t.Fatalf("N=2: tree %d should not exceed independent %d", tree, indep)
	}
}

// When R is large relative to the tensor, intermediate partials
// dominate and the tree's advantage shrinks — the estimate must
// capture that regime reversal.
func TestCommEstimateLargeRRegime(t *testing.T) {
	dims := []int{4, 4, 4, 4}
	_, indepSmall := CommEstimate(dims, 1)
	treeSmall, _ := CommEstimate(dims, 1)
	ratioSmall := float64(treeSmall) / float64(indepSmall)
	treeBig, indepBig := CommEstimate(dims, 256)
	ratioBig := float64(treeBig) / float64(indepBig)
	if ratioBig <= ratioSmall {
		t.Fatalf("large R should erode the tree's advantage: %.3f vs %.3f", ratioBig, ratioSmall)
	}
}

// The instrumented tree's measured words equal the analytic estimate
// exactly, and its results match the plain tree.
func TestInstrumentedMatchesEstimate(t *testing.T) {
	for _, dims := range [][]int{{6, 6}, {6, 6, 6}, {4, 4, 4, 4}} {
		R := 2
		x := tensor.RandomDense(31, dims...)
		fs := tensor.RandomFactors(32, dims, R)
		mach := memsim.New(1 << 20)
		res, counts, err := AllModesInstrumented(x, fs, mach)
		if err != nil {
			t.Fatalf("dims %v: %v", dims, err)
		}
		tree, _ := CommEstimate(dims, R)
		if counts.Words() != tree {
			t.Fatalf("dims %v: measured %d words, estimate %d", dims, counts.Words(), tree)
		}
		for n := range dims {
			if !res.B[n].EqualApprox(seq.Ref(x, fs, n), 1e-9) {
				t.Fatalf("dims %v mode %d: wrong result", dims, n)
			}
		}
	}
}

func TestInstrumentedCapacityError(t *testing.T) {
	dims := []int{8, 8, 8}
	x := tensor.RandomDense(33, dims...)
	fs := tensor.RandomFactors(34, dims, 4)
	// Root child destination is 8*8*4 = 256 words; M = 64 cannot hold it.
	if _, _, err := AllModesInstrumented(x, fs, memsim.New(64)); err == nil {
		t.Fatal("expected capacity error")
	}
}

// Measured head-to-head (E14 comm): instrumented tree vs N x blocked
// Algorithm 2 at the same machine size — the tree moves fewer words in
// the tensor-dominated regime.
func TestInstrumentedTreeBeatsIndependentMeasured(t *testing.T) {
	dims := []int{8, 8, 8, 8}
	R := 2
	x := tensor.RandomDense(35, dims...)
	fs := tensor.RandomFactors(36, dims, R)
	M := int64(1 << 13)
	machT := memsim.New(M)
	_, counts, err := AllModesInstrumented(x, fs, machT)
	if err != nil {
		t.Fatal(err)
	}
	var indep int64
	for n := range dims {
		b, err := seq.ChooseBlock(M, len(dims), 0.9)
		if err != nil {
			t.Fatal(err)
		}
		res, err := seq.Blocked(x, fs, n, b, memsim.New(M))
		if err != nil {
			t.Fatal(err)
		}
		indep += res.Counts.Words()
	}
	if counts.Words() >= indep {
		t.Fatalf("tree %d words should beat %d independent blocked runs (%d words)",
			counts.Words(), len(dims), indep)
	}
}

// Property: random shapes and ranks, tree output equals per-mode Ref.
func TestAllModesQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		N := 2 + rng.Intn(3)
		dims := make([]int, N)
		for i := range dims {
			dims[i] = 1 + rng.Intn(5)
		}
		R := 1 + rng.Intn(4)
		x := tensor.RandomDense(seed, dims...)
		fs := tensor.RandomFactors(seed+1, dims, R)
		res := AllModes(x, fs)
		for n := range dims {
			if !res.B[n].EqualApprox(seq.Ref(x, fs, n), 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
