package cpals

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

func TestDecomposeRecoversExactLowRank(t *testing.T) {
	dims := []int{6, 5, 4}
	R := 2
	truth := tensor.RandomFactors(7, dims, R)
	x := tensor.FromFactors(truth)
	model, trace, err := Decompose(x, Options{R: R, MaxIters: 200, Tol: 1e-12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if model.Fit < 0.9999 {
		t.Fatalf("fit = %v, expected near-exact recovery", model.Fit)
	}
	if len(trace) == 0 {
		t.Fatal("empty trace")
	}
	// Reconstruction matches the data.
	rec := model.Reconstruct()
	if rec.MaxAbsDiff(x) > 1e-2*x.Norm() {
		t.Fatalf("reconstruction error %v too large", rec.MaxAbsDiff(x))
	}
}

func TestDecomposeFitMonotone(t *testing.T) {
	dims := []int{5, 5, 5}
	x := tensor.RandomDense(11, dims...)
	_, trace, err := Decompose(x, Options{R: 3, MaxIters: 30, Tol: 0, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(trace); i++ {
		if trace[i].Fit < trace[i-1].Fit-1e-9 {
			t.Fatalf("fit decreased at iter %d: %v -> %v", i, trace[i-1].Fit, trace[i].Fit)
		}
	}
}

func TestDecomposeNoisyLowRank(t *testing.T) {
	dims := []int{6, 6, 6}
	R := 2
	truth := tensor.RandomFactors(13, dims, R)
	x := tensor.FromFactors(truth)
	tensor.AddNoise(x, 17, 0.01)
	model, _, err := Decompose(x, Options{R: R, MaxIters: 100, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	if model.Fit < 0.95 {
		t.Fatalf("fit = %v on lightly noised low-rank data", model.Fit)
	}
}

func TestDecomposeMatrixCase(t *testing.T) {
	// N = 2: CP-ALS computes a rank-R matrix approximation.
	x := tensor.RandomDense(23, 8, 6)
	model, _, err := Decompose(x, Options{R: 4, MaxIters: 60, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	if model.Fit <= 0.3 {
		t.Fatalf("rank-4 fit of an 8x6 matrix should be substantial, got %v", model.Fit)
	}
}

// Normalization leaves the represented tensor (and hence the fit
// trajectory) unchanged while balancing factor norms.
func TestNormalizePreservesFitBalancesNorms(t *testing.T) {
	dims := []int{6, 6, 6}
	x := tensor.RandomDense(61, dims...)
	opts := Options{R: 3, MaxIters: 12, Tol: math.Inf(-1), Seed: 63}
	_, plain, err := Decompose(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	optsN := opts
	optsN.Normalize = true
	modelN, normed, err := Decompose(x, optsN)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != opts.MaxIters || len(normed) != opts.MaxIters {
		t.Fatalf("trace lengths %d and %d, want %d", len(plain), len(normed), opts.MaxIters)
	}
	for i := range plain {
		if math.Abs(plain[i].Fit-normed[i].Fit) > 1e-6 {
			t.Fatalf("sweep %d: fit %v vs %v", i, plain[i].Fit, normed[i].Fit)
		}
	}
	// Column norms balanced across modes for each component.
	for r := 0; r < 3; r++ {
		var norms []float64
		for _, f := range modelN.Factors {
			col := f.Col(r)
			var s float64
			for _, v := range col {
				s += v * v
			}
			norms = append(norms, math.Sqrt(s))
		}
		for k := 1; k < len(norms); k++ {
			if math.Abs(norms[k]-norms[0]) > 1e-6*(1+norms[0]) {
				t.Fatalf("component %d norms unbalanced: %v", r, norms)
			}
		}
	}
}

func TestRebalanceZeroColumnSafe(t *testing.T) {
	fs := tensor.RandomFactors(65, []int{3, 3}, 2)
	fs[0].Col(1)[0], fs[0].Col(1)[1], fs[0].Col(1)[2] = 0, 0, 0
	before := tensor.FromFactors(fs)
	rebalance(fs)
	after := tensor.FromFactors(fs)
	if !before.EqualApprox(after, 1e-10) {
		t.Fatal("rebalance changed the represented tensor")
	}
}

func TestDecomposeErrors(t *testing.T) {
	x := tensor.RandomDense(1, 4, 4)
	if _, _, err := Decompose(x, Options{R: 0}); err == nil {
		t.Fatal("R=0 should error")
	}
	if _, _, err := Decompose(x, Options{R: 2, MaxIters: -1}); err == nil {
		t.Fatal("negative MaxIters should error")
	}
	zero := tensor.NewDense(3, 3)
	if _, _, err := Decompose(zero, Options{R: 1}); err == nil {
		t.Fatal("zero tensor should error")
	}
	if _, _, err := Decompose(tensor.RandomDense(1, 4), Options{R: 1}); err == nil {
		t.Fatal("order 1 should error")
	}
}

func TestDecomposeParallelMatchesSequential(t *testing.T) {
	dims := []int{8, 8, 8}
	R := 2
	truth := tensor.RandomFactors(31, dims, R)
	x := tensor.FromFactors(truth)
	opts := Options{R: R, MaxIters: 10, Tol: math.Inf(-1), Seed: 37}
	_, seqTrace, err := Decompose(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	parRes, err := DecomposeParallel(x, []int{2, 2, 2}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(parRes.Trace) != opts.MaxIters || len(seqTrace) != opts.MaxIters {
		t.Fatalf("trace lengths %d and %d, want %d", len(parRes.Trace), len(seqTrace), opts.MaxIters)
	}
	for i := range seqTrace {
		if math.Abs(parRes.Trace[i].Fit-seqTrace[i].Fit) > 1e-6 {
			t.Fatalf("iter %d: parallel fit %v vs sequential %v",
				i, parRes.Trace[i].Fit, seqTrace[i].Fit)
		}
	}
}

func TestDecomposeParallelRecovers(t *testing.T) {
	dims := []int{8, 4, 8}
	R := 2
	truth := tensor.RandomFactors(41, dims, R)
	x := tensor.FromFactors(truth)
	res, err := DecomposeParallel(x, []int{2, 1, 2}, Options{R: R, MaxIters: 150, Tol: 1e-12, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if res.Model.Fit < 0.999 {
		t.Fatalf("parallel fit = %v", res.Model.Fit)
	}
	rec := res.Model.Reconstruct()
	if rec.MaxAbsDiff(x) > 1e-2*x.Norm() {
		t.Fatalf("parallel reconstruction error %v", rec.MaxAbsDiff(x))
	}
}

// E10: the paper's premise — MTTKRP communication dominates CP-ALS
// communication.
func TestParallelMTTKRPDominatesComm(t *testing.T) {
	dims := []int{12, 12, 12}
	x := tensor.RandomDense(47, dims...)
	res, err := DecomposeParallel(x, []int{2, 2, 2}, Options{R: 4, MaxIters: 5, Tol: 0, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxMTTKRPWords() <= res.MaxOtherWords() {
		t.Fatalf("MTTKRP words (%d) should dominate other words (%d)",
			res.MaxMTTKRPWords(), res.MaxOtherWords())
	}
}

func TestDecomposeParallelErrors(t *testing.T) {
	x := tensor.RandomDense(1, 4, 4)
	if _, err := DecomposeParallel(x, []int{2}, Options{R: 2}); err == nil {
		t.Fatal("wrong shape rank should error")
	}
	if _, err := DecomposeParallel(x, []int{4, 2}, Options{R: 2}); err == nil {
		t.Fatal("P > min dim should error")
	}
	if _, err := DecomposeParallel(x, []int{2, 2}, Options{R: 0}); err == nil {
		t.Fatal("R=0 should error")
	}
	if _, err := DecomposeParallel(x, []int{2, 2}, Options{R: 2, Normalize: true}); err == nil {
		t.Fatal("Normalize should error: the parallel solver does not rebalance norms")
	}
	// An order-1 tensor and a zero tensor fail as they do sequentially:
	// the order before any work, the zero tensor on every rank at once
	// from the all-reduced norm.
	if _, err := DecomposeParallel(tensor.RandomDense(1, 4), []int{2}, Options{R: 2}); err == nil || err.Error() != "cpals: tensor order 1" {
		t.Fatalf("order 1: error %v, want cpals: tensor order 1", err)
	}
	if _, err := DecomposeParallel(tensor.NewDense(4, 4), []int{2, 2}, Options{R: 2}); err == nil || err.Error() != "cpals: zero tensor" {
		t.Fatalf("zero tensor: error %v, want cpals: zero tensor", err)
	}
}

func TestParallelSingleProcessor(t *testing.T) {
	dims := []int{5, 5}
	x := tensor.RandomDense(53, dims...)
	opts := Options{R: 2, MaxIters: 5, Tol: math.Inf(-1), Seed: 55}
	res, err := DecomposeParallel(x, []int{1, 1}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxMTTKRPWords() != 0 || res.MaxOtherWords() != 0 {
		t.Fatal("P=1 should not communicate")
	}
	_, seqTrace, err := Decompose(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != opts.MaxIters || len(seqTrace) != opts.MaxIters {
		t.Fatalf("trace lengths %d and %d, want %d", len(res.Trace), len(seqTrace), opts.MaxIters)
	}
	for i := range seqTrace {
		if math.Abs(res.Trace[i].Fit-seqTrace[i].Fit) > 1e-9 {
			t.Fatalf("P=1 parallel should match sequential exactly at iter %d", i)
		}
	}
}
