package linalg

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// normLengths are the lengths the norm tests cover: empty, one word,
// one either side of the first chunk boundary, and several chunks with
// a ragged last one.
var normLengths = []int{0, 1, normChunk - 1, normChunk, normChunk + 1, 5*normChunk + 17}

// wideVector draws n values spanning about six decades of magnitude.
func wideVector(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Ldexp(rng.NormFloat64(), rng.Intn(20)-10)
	}
	return x
}

// compensatedNorm is the reference: every square's rounding error
// recovered with math.FMA and every addition's with TwoSum, so the sum
// of squares is exact to about one rounding.
func compensatedNorm(x []float64) float64 {
	var s, c float64
	for _, v := range x {
		p := v * v
		e := math.FMA(v, v, -p)
		t := s + p
		z := t - s
		c += (s - (t - z)) + (p - z) + e
		s = t
	}
	return math.Sqrt(s + c)
}

// TestNormAccurate: at every covered length the chunked norm is within
// 2·n·ε of the compensated reference, and within the same bound of the
// scalar oracle tensor.Dense.Norm.
func TestNormAccurate(t *testing.T) {
	eps := math.Nextafter(1, 2) - 1
	for _, n := range normLengths {
		x := wideVector(int64(n), n)
		got := Norm(x, 2)
		want := compensatedNorm(x)
		tol := 2 * float64(max(n, 1)) * eps * want
		if d := math.Abs(got - want); d > tol {
			t.Errorf("n=%d: Norm %v differs from the compensated %v by %.3g (tol %.3g)", n, got, want, d, tol)
		}
		if n == 0 {
			continue
		}
		oracle := tensor.NewDenseFromData(x, n).Norm()
		if d := math.Abs(got - oracle); d > tol {
			t.Errorf("n=%d: Norm %v differs from Dense.Norm %v by %.3g (tol %.3g)", n, got, oracle, d, tol)
		}
	}
}

// TestNormBitwiseAcrossWorkers: the chunks depend on the length alone,
// so workers 1, 2, 3 and 8 give the same bits.
func TestNormBitwiseAcrossWorkers(t *testing.T) {
	for _, n := range normLengths {
		x := wideVector(int64(n)+1, n)
		base := Norm(x, 1)
		for _, w := range []int{2, 3, 8} {
			if got := Norm(x, w); got != base { //repro:bitwise the bitwise worker-count-independence contract under test
				t.Errorf("n=%d workers=%d: %x != %x at 1 worker", n, w, got, base)
			}
		}
	}
}

// TestNormNonFinite: a NaN anywhere gives NaN, an infinity of either
// sign gives +Inf, and a NaN beside an infinity still gives NaN.
func TestNormNonFinite(t *testing.T) {
	n := 3*normChunk + 5
	for _, pos := range []int{0, normChunk - 1, normChunk, n - 1} {
		for _, w := range []int{1, 2} {
			x := wideVector(7, n)
			x[pos] = math.NaN()
			if got := Norm(x, w); !math.IsNaN(got) {
				t.Errorf("NaN at %d, workers %d: Norm = %v", pos, w, got)
			}
			for _, sign := range []int{1, -1} {
				x[pos] = math.Inf(sign)
				if got := Norm(x, w); !math.IsInf(got, 1) {
					t.Errorf("Inf(%d) at %d, workers %d: Norm = %v", sign, pos, w, got)
				}
			}
			x[(pos+normChunk)%n] = math.NaN()
			if got := Norm(x, w); !math.IsNaN(got) {
				t.Errorf("Inf at %d beside a NaN, workers %d: Norm = %v", pos, w, got)
			}
		}
	}
	if got := Norm([]float64{math.Inf(-1)}, 1); !math.IsInf(got, 1) {
		t.Errorf("single -Inf: Norm = %v", got)
	}
}

// TestNormZeroAlloc: once the descriptor's partials have grown, a
// 2-worker norm allocates nothing. The worker count is explicit
// because AllocsPerRun pins GOMAXPROCS to 1.
func TestNormZeroAlloc(t *testing.T) {
	x := wideVector(3, 8*normChunk)
	run := func() { Norm(x, 2) }
	run()
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 { //repro:bitwise exact allocation count
		t.Errorf("2-worker Norm: %v allocs/op, want 0", allocs)
	}
}
