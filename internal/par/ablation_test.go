package par

import (
	"testing"

	"repro/internal/tensor"
)

// Grid-shape ablation (DESIGN.md §6): for a cubical tensor, the
// cubical processor grid communicates less than a maximally skewed
// one-dimensional grid at the same P.
func TestGridShapeAblation(t *testing.T) {
	dims := []int{16, 16, 16}
	R := 8
	x := tensor.RandomDense(61, dims...)
	fs := tensor.RandomFactors(62, dims, R)

	cubical, err := Stationary(x, fs, 0, []int{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	skewed, err := Stationary(x, fs, 0, []int{1, 1, 8})
	if err != nil {
		t.Fatal(err)
	}
	if cubical.MaxWords() >= skewed.MaxWords() {
		t.Fatalf("cubical grid (%d words) should beat skewed 1x1x8 (%d words)",
			cubical.MaxWords(), skewed.MaxWords())
	}
	// Both compute the same result, of course.
	if !cubical.B.EqualApprox(skewed.B, 1e-9) {
		t.Fatal("grids disagree on the result")
	}
}

// P0 ablation: with small R and abundant I/P, increasing P0 at fixed P
// only adds tensor-gather traffic.
func TestP0Ablation(t *testing.T) {
	dims := []int{16, 16, 16}
	R := 4
	x := tensor.RandomDense(63, dims...)
	fs := tensor.RandomFactors(64, dims, R)

	p0one, err := General(x, fs, 0, []int{1, 2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	p0two, err := General(x, fs, 0, []int{2, 2, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if p0one.MaxWords() >= p0two.MaxWords() {
		t.Fatalf("small-rank regime: P0=1 (%d words) should beat P0=2 (%d words)",
			p0one.MaxWords(), p0two.MaxWords())
	}
}

// E12 in the parallel context (Section V-C3 / Eq. 17): breaking the
// atomicity of the local kernel changes arithmetic but not a single
// word of communication — per-rank statistics are bitwise identical.
func TestNonAtomicVariantSameComm(t *testing.T) {
	dims := []int{8, 12, 8}
	R := 6
	x := tensor.RandomDense(69, dims...)
	fs := tensor.RandomFactors(70, dims, R)
	shape := []int{2, 2, 2}
	atomic, err := Stationary(x, fs, 1, shape)
	if err != nil {
		t.Fatal(err)
	}
	nonAtomic, err := StationaryWithKernel(x, fs, 1, shape, NonAtomicKernel)
	if err != nil {
		t.Fatal(err)
	}
	if !atomic.B.EqualApprox(nonAtomic.B, 1e-9) {
		t.Fatal("kernels disagree on the result")
	}
	for r := range atomic.Traffic {
		if atomic.Traffic[r] != nonAtomic.Traffic[r] {
			t.Fatalf("rank %d: stats differ: %+v vs %+v",
				r, atomic.Traffic[r], nonAtomic.Traffic[r])
		}
	}
}

// Measured per-rank storage equals the Eq. (16)/(20) memory models for
// balanced layouts.
func TestResidentMatchesMemoryModel(t *testing.T) {
	dims := []int{8, 8, 8}
	R := 8
	x := tensor.RandomDense(67, dims...)
	fs := tensor.RandomFactors(68, dims, R)

	res3, err := Stationary(x, fs, 0, []int{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Eq. (16): I/P + sum_k (I_k/P_k)*R = 64 + 3*4*8 = 160.
	if got := res3.MaxResident(); got != 160 {
		t.Fatalf("Alg3 resident = %d, Eq.(16) says 160", got)
	}

	res4, err := General(x, fs, 0, []int{2, 2, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Eq. (20): gathered block (4*4*8=128) + sum_k (I_k/P_k)*(R/P0):
	// 128 + (4+4+8)*4 = 192.
	if got := res4.MaxResident(); got != 192 {
		t.Fatalf("Alg4 resident = %d, Eq.(20) says 192", got)
	}
}

// Latency proxy: bucket collectives cost q-1 messages each; the
// stationary algorithm on a 2x2x2 grid runs N = 3 collectives over
// hyperslices of size 4, so 3 * (4-1) messages each way per rank.
func TestMessageCounts(t *testing.T) {
	dims := []int{8, 8, 8}
	x := tensor.RandomDense(65, dims...)
	fs := tensor.RandomFactors(66, dims, 2)
	res, err := Stationary(x, fs, 0, []int{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.MaxMsgs(), int64(2*3*3); got != want {
		t.Fatalf("MaxMsgs = %d, want %d", got, want)
	}
}
