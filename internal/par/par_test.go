package par

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bounds"
	"repro/internal/dist"
	"repro/internal/seq"
	"repro/internal/tensor"
)

func TestStationaryCorrectAllModes(t *testing.T) {
	dims := []int{6, 4, 5}
	R := 3
	x := tensor.RandomDense(1, dims...)
	fs := tensor.RandomFactors(2, dims, R)
	for _, shape := range [][]int{{1, 1, 1}, {2, 1, 1}, {2, 2, 1}, {3, 2, 2}, {2, 4, 5}} {
		for n := range dims {
			res, err := Stationary(x, fs, n, shape)
			if err != nil {
				t.Fatalf("shape %v mode %d: %v", shape, n, err)
			}
			want := seq.Ref(x, fs, n)
			if !res.B.EqualApprox(want, 1e-9) {
				t.Fatalf("shape %v mode %d: wrong result (maxdiff %v)",
					shape, n, res.B.MaxAbsDiff(want))
			}
		}
	}
}

func TestStationarySingleProcessorNoComm(t *testing.T) {
	dims := []int{4, 4}
	x := tensor.RandomDense(3, dims...)
	fs := tensor.RandomFactors(4, dims, 2)
	res, err := Stationary(x, fs, 0, []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxWords() != 0 {
		t.Fatalf("P=1 moved %d words", res.MaxWords())
	}
}

func TestStationaryTensorNeverMoves(t *testing.T) {
	// The defining property: total traffic is exactly the factor
	// gathers plus the output reduce — strictly less than I words when
	// factors are small, proving tensor entries stay put.
	dims := []int{8, 8, 8} // I = 512
	R := 2
	x := tensor.RandomDense(5, dims...)
	fs := tensor.RandomFactors(6, dims, R)
	res, err := Stationary(x, fs, 0, []int{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Factor data is 3*8*2 = 48 words total; tensor is 512. Any
	// algorithm that moved the tensor would show >= 512/8 words on
	// some rank.
	if res.MaxWords() >= 64 {
		t.Fatalf("stationary algorithm moved %d words per rank; tensor appears to move", res.MaxWords())
	}
}

// E6 part 1: measured per-rank sends equal Eq. (14) exactly for a
// perfectly balanced distribution.
func TestAlg3CostMatchesModel(t *testing.T) {
	dims := []int{8, 8, 8}
	R := 8
	n := 0
	shape := []int{2, 2, 2}
	x := tensor.RandomDense(7, dims...)
	fs := tensor.RandomFactors(8, dims, R)
	res, err := Stationary(x, fs, n, shape)
	if err != nil {
		t.Fatal(err)
	}
	lay, err := dist.NewStationary(dims, R, shape)
	if err != nil {
		t.Fatal(err)
	}
	g := lay.G
	var want int64
	for k := 0; k < 3; k++ {
		q := int64(g.P() / g.Extent(k))
		want += (q - 1) * lay.MaxFactorNnz(k)
	}
	for r, s := range res.Stats {
		if s.SentWords != want {
			t.Fatalf("rank %d sent %d words, Eq.(14) says %d", r, s.SentWords, want)
		}
		if s.RecvWords != want {
			t.Fatalf("rank %d received %d words, want %d", r, s.RecvWords, want)
		}
	}
}

func TestStationaryPhaseBreakdown(t *testing.T) {
	dims := []int{8, 8, 8}
	R := 4
	x := tensor.RandomDense(9, dims...)
	fs := tensor.RandomFactors(10, dims, R)
	res, err := Stationary(x, fs, 1, []int{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	for r := range res.Stats {
		if res.GatherWords[r]+res.ReduceWords[r] != res.Stats[r].Words() {
			t.Fatalf("rank %d: phases %d+%d != total %d",
				r, res.GatherWords[r], res.ReduceWords[r], res.Stats[r].Words())
		}
		if res.GatherWords[r] == 0 || res.ReduceWords[r] == 0 {
			t.Fatalf("rank %d: expected both phases to communicate", r)
		}
	}
}

func TestGeneralCorrectAllModes(t *testing.T) {
	dims := []int{4, 6, 4}
	R := 4
	x := tensor.RandomDense(11, dims...)
	fs := tensor.RandomFactors(12, dims, R)
	for _, shape := range [][]int{
		{1, 1, 1, 1},
		{2, 1, 1, 1},
		{2, 2, 1, 1},
		{4, 1, 2, 1},
		{2, 2, 3, 2},
	} {
		for n := range dims {
			res, err := General(x, fs, n, shape)
			if err != nil {
				t.Fatalf("shape %v mode %d: %v", shape, n, err)
			}
			want := seq.Ref(x, fs, n)
			if !res.B.EqualApprox(want, 1e-9) {
				t.Fatalf("shape %v mode %d: wrong result (maxdiff %v)",
					shape, n, res.B.MaxAbsDiff(want))
			}
		}
	}
}

// Algorithm 3 is the P0 = 1 special case of Algorithm 4: identical
// results and identical per-rank communication.
func TestGeneralP0OneMatchesStationary(t *testing.T) {
	dims := []int{6, 4, 4}
	R := 3
	x := tensor.RandomDense(13, dims...)
	fs := tensor.RandomFactors(14, dims, R)
	n := 1
	shape3 := []int{2, 2, 1}
	res3, err := Stationary(x, fs, n, shape3)
	if err != nil {
		t.Fatal(err)
	}
	res4, err := General(x, fs, n, append([]int{1}, shape3...))
	if err != nil {
		t.Fatal(err)
	}
	if !res3.B.EqualApprox(res4.B, 1e-9) {
		t.Fatal("results differ")
	}
	for r := range res3.Stats {
		if res3.Stats[r].SentWords != res4.Stats[r].SentWords {
			t.Fatalf("rank %d: Alg3 sent %d, Alg4(P0=1) sent %d",
				r, res3.Stats[r].SentWords, res4.Stats[r].SentWords)
		}
	}
}

// E6 part 2: Eq. (18) exactly for a balanced general run.
func TestAlg4CostMatchesModel(t *testing.T) {
	dims := []int{8, 8, 8}
	R := 8
	n := 0
	shape := []int{2, 2, 2, 1} // P0=2, P = 8
	x := tensor.RandomDense(15, dims...)
	fs := tensor.RandomFactors(16, dims, R)
	res, err := General(x, fs, n, shape)
	if err != nil {
		t.Fatal(err)
	}
	lay, err := dist.NewGeneral(dims, R, shape)
	if err != nil {
		t.Fatal(err)
	}
	g := lay.G
	p0 := int64(g.Extent(0))
	want := (p0 - 1) * lay.MaxTensorNnz()
	for k := 0; k < 3; k++ {
		q := int64(g.P()) / (p0 * int64(g.Extent(k+1)))
		want += (q - 1) * lay.MaxFactorNnz(k)
	}
	for r, s := range res.Stats {
		if s.SentWords != want {
			t.Fatalf("rank %d sent %d words, Eq.(18) says %d", r, s.SentWords, want)
		}
	}
}

func TestGeneralShapeErrors(t *testing.T) {
	dims := []int{4, 4}
	x := tensor.RandomDense(1, dims...)
	fs := tensor.RandomFactors(2, dims, 2)
	if _, err := General(x, fs, 0, []int{2, 2}); err == nil {
		t.Fatal("N-way shape should be rejected for General")
	}
	if _, err := Stationary(x, fs, 0, []int{2, 2, 2}); err == nil {
		t.Fatal("(N+1)-way shape should be rejected for Stationary")
	}
}

func TestViaMatmul1DCorrect(t *testing.T) {
	dims := []int{4, 5, 3}
	R := 3
	x := tensor.RandomDense(17, dims...)
	fs := tensor.RandomFactors(18, dims, R)
	for _, P := range []int{1, 2, 4, 8} {
		for n := range dims {
			res, err := ViaMatmul1D(x, fs, n, P)
			if err != nil {
				t.Fatalf("P=%d mode=%d: %v", P, n, err)
			}
			want := seq.Ref(x, fs, n)
			if !res.B.EqualApprox(want, 1e-9) {
				t.Fatalf("P=%d mode=%d: wrong result", P, n)
			}
		}
	}
}

func TestViaMatmul1DCost(t *testing.T) {
	// Per-rank sends = (P-1)/P * In * R, *independent of P* growing —
	// no strong scaling. This is the flat region of Figure 4.
	dims := []int{8, 8, 8}
	R := 4
	x := tensor.RandomDense(19, dims...)
	fs := tensor.RandomFactors(20, dims, R)
	for _, P := range []int{2, 4, 8} {
		res, err := ViaMatmul1D(x, fs, 0, P)
		if err != nil {
			t.Fatal(err)
		}
		want := int64((P - 1) * 8 * R / P)
		for r, s := range res.Stats {
			if s.SentWords != want {
				t.Fatalf("P=%d rank %d sent %d, want %d", P, r, s.SentWords, want)
			}
		}
	}
}

// The paper's headline parallel claim: for small R, the stationary
// algorithm communicates far less than the matmul approach on the same
// machine.
func TestStationaryBeatsMatmul(t *testing.T) {
	// The small-P advantage of Section VI-B is a factor O(P^(1/N)/N),
	// so P must exceed roughly N^N before Algorithm 3 wins.
	dims := []int{32, 32, 32} // I = 2^15
	R := 4
	P := 64
	x := tensor.RandomDense(21, dims...)
	fs := tensor.RandomFactors(22, dims, R)
	res3, err := Stationary(x, fs, 0, []int{4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	resM, err := ViaMatmul1D(x, fs, 0, P)
	if err != nil {
		t.Fatal(err)
	}
	if res3.MaxWords() >= resM.MaxWords() {
		t.Fatalf("stationary %d words should beat matmul %d words",
			res3.MaxWords(), resM.MaxWords())
	}
}

// E5: measured communication respects the memory-independent lower
// bounds (Theorems 4.2/4.3 with gamma = delta = 1, since our
// distributions are exactly balanced).
func TestMeasuredRespectsLowerBound(t *testing.T) {
	dims := []int{16, 16, 16}
	R := 16
	P := 8
	x := tensor.RandomDense(23, dims...)
	fs := tensor.RandomFactors(24, dims, R)
	prob := bounds.Problem{Dims: dims, R: R}
	lb := bounds.ParBest(prob, float64(P), 1, 1)
	if lb <= 0 {
		t.Fatalf("lower bound vacuous (%v); pick better parameters", lb)
	}
	res3, err := Stationary(x, fs, 0, []int{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if float64(res3.MaxWords()) < lb {
		t.Fatalf("Alg3 measured %d words below lower bound %v", res3.MaxWords(), lb)
	}
	res4, err := General(x, fs, 0, []int{2, 2, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if float64(res4.MaxWords()) < lb {
		t.Fatalf("Alg4 measured %d words below lower bound %v", res4.MaxWords(), lb)
	}
	resM, err := ViaMatmul1D(x, fs, 0, P)
	if err != nil {
		t.Fatal(err)
	}
	if float64(resM.MaxWords()) < lb {
		t.Fatalf("matmul measured %d words below lower bound %v", resM.MaxWords(), lb)
	}
}

// Property: random problems, random grids — all three parallel
// algorithms agree with the sequential reference.
func TestParallelAgreesWithRefQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		N := 2 + rng.Intn(2)
		dims := make([]int, N)
		shape := make([]int, N)
		for i := range dims {
			shape[i] = 1 + rng.Intn(2)
			dims[i] = shape[i] * (1 + rng.Intn(3))
		}
		R := 1 + rng.Intn(4)
		n := rng.Intn(N)
		x := tensor.RandomDense(seed, dims...)
		fs := tensor.RandomFactors(seed+1, dims, R)
		want := seq.Ref(x, fs, n)

		r3, err := Stationary(x, fs, n, shape)
		if err != nil || !r3.B.EqualApprox(want, 1e-9) {
			return false
		}
		p0 := 1 + rng.Intn(min(R, 3))
		r4, err := General(x, fs, n, append([]int{p0}, shape...))
		if err != nil || !r4.B.EqualApprox(want, 1e-9) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestViaMatmul1DErrors(t *testing.T) {
	dims := []int{2, 2}
	x := tensor.RandomDense(1, dims...)
	fs := tensor.RandomFactors(2, dims, 2)
	if _, err := ViaMatmul1D(x, fs, 0, 0); err == nil {
		t.Fatal("P=0 should error")
	}
	if _, err := ViaMatmul1D(x, fs, 0, 100); err == nil {
		t.Fatal("P > J should error")
	}
}
