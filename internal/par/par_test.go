package par

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bounds"
	"repro/internal/dist"
	"repro/internal/obs/flight"
	"repro/internal/seq"
	"repro/internal/simnet"
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
	if got := lay.MaxSends(); got != want {
		t.Fatalf("MaxSends = %d, Eq. (14) says %d", got, want)
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

// TestGeneralP0OneMatchesStationary: Algorithm 3 is Algorithm 4 at
// P0 = 1, message for message. On orders 2-4, with even, uneven and
// unit grid extents, for every mode, General on [1 shape...] and
// Stationary on shape give bitwise the same B, every rank the same
// simnet.Stats and gather, reduce and resident words, and every rank
// the same (kind, peer, words, seq) sequence of sends and receives.
func TestGeneralP0OneMatchesStationary(t *testing.T) {
	for _, tc := range []struct{ dims, shape []int }{
		{[]int{9, 7}, []int{3, 2}},
		{[]int{8, 8, 8}, []int{2, 2, 2}},
		{[]int{6, 5, 7}, []int{3, 1, 2}},
		{[]int{13, 11, 7}, []int{3, 2, 1}},
		{[]int{5, 4, 3}, []int{1, 1, 1}},
		{[]int{6, 5, 7, 4}, []int{2, 1, 2, 1}},
	} {
		x := tensor.RandomDense(13, tc.dims...)
		fs := tensor.RandomFactors(14, tc.dims, 3)
		for n := range tc.dims {
			at := fmt.Sprintf("%v on %v mode %d", tc.dims, tc.shape, n)
			res3, msgs3 := recordRun(t, func() (*Result, error) { return Stationary(x, fs, n, tc.shape) })
			res4, msgs4 := recordRun(t, func() (*Result, error) { return General(x, fs, n, append([]int{1}, tc.shape...)) })
			for i, v := range res3.B.Data() {
				if math.Float64bits(v) != math.Float64bits(res4.B.Data()[i]) {
					t.Fatalf("%s: B[%d] = %v, Algorithm 4 at P0 = 1 gives %v", at, i, v, res4.B.Data()[i])
				}
			}
			for r := range res3.Stats {
				if res3.Stats[r] != res4.Stats[r] || res3.GatherWords[r] != res4.GatherWords[r] ||
					res3.ReduceWords[r] != res4.ReduceWords[r] || res3.ResidentWords[r] != res4.ResidentWords[r] {
					t.Fatalf("%s rank %d: Alg3 %+v gather %d reduce %d resident %d; Alg4 %+v %d %d %d", at, r,
						res3.Stats[r], res3.GatherWords[r], res3.ReduceWords[r], res3.ResidentWords[r],
						res4.Stats[r], res4.GatherWords[r], res4.ReduceWords[r], res4.ResidentWords[r])
				}
				if fmt.Sprint(msgs3[r]) != fmt.Sprint(msgs4[r]) {
					t.Fatalf("%s rank %d: Alg3 messages %v, Alg4 %v", at, r, msgs3[r], msgs4[r])
				}
			}
		}
	}
}

// message is one send or receive as a rank records it: its kind, peer,
// words and sequence number on its channel.
type message struct {
	kind       uint8
	peer       int32
	words, seq int64
}

// recordRun runs f under a distributed flight recorder and returns its
// result with each rank's sends and receives in the order the rank
// made them.
func recordRun(t *testing.T, f func() (*Result, error)) (*Result, [][]message) {
	t.Helper()
	rec := flight.NewDistributed(64, 1<<12)
	flight.Enable(rec)
	res, err := f()
	flight.Disable()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("recorder dropped %d events", rec.Dropped())
	}
	msgs := make([][]message, len(res.Stats))
	for _, ev := range rec.Events() {
		if ev.Kind == uint8(flight.KindSend) || ev.Kind == uint8(flight.KindRecv) {
			msgs[ev.Pid] = append(msgs[ev.Pid], message{ev.Kind, ev.Peer, ev.A, int64(ev.Seq)})
		}
	}
	return res, msgs
}

// TestRankGathersBlock: at P0 > 1 a rank keeps its 1/P0 shard of the
// block and all-gathers the rest over its P0-fiber (Line 3 of
// Algorithm 4). It ends with bitwise the block LocalTensor cuts, in
// the ring's words, and its Norm is ||X||.
func TestRankGathersBlock(t *testing.T) {
	dims := []int{7, 6, 5}
	x := tensor.RandomDense(3, dims...)
	norm := x.Norm()
	for _, shape := range [][]int{{2, 2, 1, 2}, {3, 1, 3, 1}, {4, 2, 2, 2}} {
		lay, err := dist.NewGeneral(dims, 4, shape)
		if err != nil {
			t.Fatal(err)
		}
		net := simnet.New(lay.P())
		err = net.Run(func(id int) error {
			r := NewRank(lay, net, id, x)
			want := lay.LocalTensor(r.Coords, x)
			if fmt.Sprint(r.Block.Dims()) != fmt.Sprint(want.Dims()) {
				return fmt.Errorf("rank %d: block dims %v, want %v", id, r.Block.Dims(), want.Dims())
			}
			for i, v := range want.Data() {
				if math.Float64bits(v) != math.Float64bits(r.Block.Data()[i]) {
					return fmt.Errorf("rank %d: block[%d] = %v, want %v", id, i, r.Block.Data()[i], v)
				}
			}
			// The ring receives every shard but the rank's own and
			// forwards every shard but the next member's.
			lo, hi := lay.TensorShardRange(r.Coords, r.p0)
			nlo, nhi := lay.TensorShardRange(r.Coords, (r.p0+1)%lay.P0)
			if got, want := r.Words(), int64(2*want.Elems()-(hi-lo)-(nhi-nlo)); got != want {
				return fmt.Errorf("rank %d: gathering the block moved %d words, want %d", id, got, want)
			}
			// Each block counts once toward the norm, though its
			// P0-fiber holds it P0 times.
			if got := r.Norm(); math.Abs(got-norm) > 1e-12*norm {
				return fmt.Errorf("rank %d: norm %v, want %v", id, got, norm)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%v: %v", shape, err)
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
	p0 := int64(lay.P0)
	want := (p0 - 1) * lay.MaxTensorNnz()
	for k := 0; k < 3; k++ {
		q := int64(lay.P()) / (p0 * int64(lay.G.Extent(k)))
		want += (q - 1) * lay.MaxFactorNnz(k)
	}
	if got := lay.MaxSends(); got != want {
		t.Fatalf("MaxSends = %d, Eq. (18) says %d", got, want)
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
