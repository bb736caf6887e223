package par

import (
	"testing"

	"repro/internal/seq"
	"repro/internal/tensor"
)

func TestAllModesStationaryCorrect(t *testing.T) {
	dims := []int{6, 4, 4}
	R := 3
	x := tensor.RandomDense(71, dims...)
	fs := tensor.RandomFactors(72, dims, R)
	res, err := AllModesStationary(x, fs, []int{2, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	for n := range dims {
		want := seq.Ref(x, fs, n)
		if !res.B[n].EqualApprox(want, 1e-9) {
			t.Fatalf("mode %d mismatch: %v", n, res.B[n].MaxAbsDiff(want))
		}
	}
}

// The communication claim: shared gathers cost strictly less than N
// independent Algorithm 3 runs — and exactly
// sum_k (q_k - 1) w_k (once) + sum_n (q_n - 1) w_n.
func TestAllModesSharesGathers(t *testing.T) {
	dims := []int{8, 8, 8}
	R := 8
	shape := []int{2, 2, 2}
	x := tensor.RandomDense(73, dims...)
	fs := tensor.RandomFactors(74, dims, R)

	shared, err := AllModesStationary(x, fs, shape)
	if err != nil {
		t.Fatal(err)
	}
	var independent int64
	for n := range dims {
		res, err := Stationary(x, fs, n, shape)
		if err != nil {
			t.Fatal(err)
		}
		independent += res.MaxWords()
	}
	if shared.MaxWords() >= independent {
		t.Fatalf("shared gathers (%d words) should beat %d independent runs (%d words)",
			shared.MaxWords(), len(dims), independent)
	}
	// Exact count for this balanced case: per rank, gathers once
	// (3 modes x (q-1) w) plus one reduce-scatter per mode (same w
	// here), all x2 for sends+receives: 2 * 6 * 3 * 8 = 288 vs
	// independent 3 * 2 * 3 * 3 * 8 = 432... compute from formulas:
	// w_k = 8, q_k = 4 for each mode.
	wantShared := int64(2 * (3*3*8 + 3*3*8)) // gathers + reduces
	if shared.MaxWords() != wantShared {
		t.Fatalf("shared words = %d, want %d", shared.MaxWords(), wantShared)
	}
	// Saving factor (N+1)/(2N) = 4/6 for N = 3.
	if got, want := float64(shared.MaxWords())/float64(independent), 4.0/6; got != want { //repro:bitwise exact ratio of exact integer word counts
		t.Fatalf("saving ratio %v, want %v", got, want)
	}
}

// The computation half of the multi-MTTKRP saving: local flops come
// from one dimension-tree pass per rank, below N independent kernels.
func TestAllModesLocalFlopsSaved(t *testing.T) {
	dims := []int{8, 8, 8, 8}
	R := 2
	x := tensor.RandomDense(77, dims...)
	fs := tensor.RandomFactors(78, dims, R)
	res, err := AllModesStationary(x, fs, []int{2, 2, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	blockElems := int64(4 * 4 * 8 * 8)
	naive := int64(len(dims)) * blockElems * int64(R) * int64(len(dims)+1)
	for r, fl := range res.LocalFlops {
		if fl <= 0 || fl >= naive {
			t.Fatalf("rank %d: local flops %d vs naive %d", r, fl, naive)
		}
	}
}

func TestAllModesSingleProc(t *testing.T) {
	dims := []int{4, 4}
	x := tensor.RandomDense(75, dims...)
	fs := tensor.RandomFactors(76, dims, 2)
	res, err := AllModesStationary(x, fs, []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxWords() != 0 {
		t.Fatal("P=1 should not communicate")
	}
	for n := range dims {
		if !res.B[n].EqualApprox(seq.Ref(x, fs, n), 1e-9) {
			t.Fatalf("mode %d mismatch", n)
		}
	}
}

func TestAllModesErrors(t *testing.T) {
	dims := []int{4, 4}
	x := tensor.RandomDense(1, dims...)
	fs := tensor.RandomFactors(2, dims, 2)
	if _, err := AllModesStationary(x, fs, []int{2}); err == nil {
		t.Fatal("wrong shape length should error")
	}
	if _, err := AllModesStationary(x, []*tensor.Matrix{nil, fs[1]}, []int{1, 1}); err == nil {
		t.Fatal("nil factor should error")
	}
}
