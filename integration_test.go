package repro

// Cross-module integration properties: these tests tie the simulators,
// cost models, grid selection, and bounds together on randomized
// configurations — the invariants a user of the whole library relies
// on, beyond any single package's unit tests.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bounds"
	"repro/internal/costmodel"
	"repro/internal/dimtree"
	"repro/internal/grid"
	"repro/internal/memsim"
	"repro/internal/par"
	"repro/internal/seq"
	"repro/internal/tensor"
)

// The chosen grid is never beaten by any other factorization of the
// same P, measured on the simulator (the exact cost model is faithful).
func TestChosenGridIsMeasuredOptimal(t *testing.T) {
	dims := []int{8, 12, 8}
	R := 6
	P := 8
	x := tensor.RandomDense(201, dims...)
	fs := tensor.RandomFactors(202, dims, R)
	best, err := costmodel.BestStationaryExact(dims, R, P)
	if err != nil {
		t.Fatal(err)
	}
	bestRes, err := par.Stationary(x, fs, 0, best)
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range grid.Factorizations(P, 3) {
		ok := true
		for k, s := range shape {
			if s > dims[k] {
				ok = false
			}
		}
		if !ok {
			continue
		}
		res, err := par.Stationary(x, fs, 0, shape)
		if err != nil {
			t.Fatalf("shape %v: %v", shape, err)
		}
		if res.MaxSent() < bestRes.MaxSent() {
			t.Fatalf("grid %v (%d sends) beats chosen %v (%d sends)",
				shape, res.MaxSent(), best, bestRes.MaxSent())
		}
	}
}

// Random problems: every sequential algorithm's measured words respect
// the lower bounds, and the blocked algorithm respects Eq. (12).
func TestSequentialInvariantsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		N := 2 + rng.Intn(2)
		dims := make([]int, N)
		for i := range dims {
			dims[i] = 3 + rng.Intn(6)
		}
		R := 1 + rng.Intn(5)
		n := rng.Intn(N)
		M := int64(32 << rng.Intn(4))
		prob := bounds.Problem{Dims: dims, R: R}
		x := tensor.RandomDense(seed, dims...)
		fs := tensor.RandomFactors(seed+1, dims, R)
		lb := bounds.SeqBest(prob, float64(M))

		ru, err := seq.Unblocked(x, fs, n, memsim.New(M))
		if err != nil || float64(ru.Counts.Words()) < lb {
			return false
		}
		b, err := seq.ChooseBlock(M, N, 0.9)
		if err != nil {
			return false
		}
		rb, err := seq.Blocked(x, fs, n, b, memsim.New(M))
		if err != nil || float64(rb.Counts.Words()) < lb {
			return false
		}
		if rb.Counts.Words() > seq.UpperBlocked(dims, R, b) {
			return false
		}
		if rb.Counts.Peak > M {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Random parallel problems: Algorithm 4 with its best grid never
// communicates more than Algorithm 3 with its best grid (P0 = 1 is in
// its search space), and both respect the memory-independent bounds.
func TestParallelInvariantsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := []int{8, 8, 8}
		R := 2 << rng.Intn(4) // 2..16
		P := 2 << rng.Intn(3) // 2..8
		x := tensor.RandomDense(seed, dims...)
		fs := tensor.RandomFactors(seed+1, dims, R)
		prob := bounds.Problem{Dims: dims, R: R}
		lb := bounds.ParBest(prob, float64(P), 1, 1)

		s3, err := costmodel.BestStationaryExact(dims, R, P)
		if err != nil {
			return false
		}
		r3, err := par.Stationary(x, fs, 0, s3)
		if err != nil {
			return false
		}
		s4, err := costmodel.BestGeneralExact(dims, R, P)
		if err != nil {
			return false
		}
		r4, err := par.General(x, fs, 0, s4)
		if err != nil {
			return false
		}
		if lb > 0 && (float64(r3.MaxWords()) < lb || float64(r4.MaxWords()) < lb) {
			return false
		}
		return r4.MaxSent() <= r3.MaxSent()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// The full pipeline agrees: direct kernel, multicore facade, dimension
// tree, instrumented algorithms, and the parallel simulators all
// produce the same B(n) on a shared random problem.
func TestEndToEndAgreement(t *testing.T) {
	dims := []int{6, 8, 4}
	R := 5
	x := tensor.RandomDense(203, dims...)
	fs := tensor.RandomFactors(204, dims, R)
	for n := range dims {
		want := seq.Ref(x, fs, n)
		if got := MTTKRPParallel(x, fs, n, 4); !got.EqualApprox(want, 1e-9) {
			t.Fatalf("mode %d: multicore facade disagrees", n)
		}
		if got := dimtree.AllModes(x, fs).B[n]; !got.EqualApprox(want, 1e-9) {
			t.Fatalf("mode %d: dimension tree disagrees", n)
		}
		seqRes, err := seq.Blocked(x, fs, n, 2, memsim.New(256))
		if err != nil {
			t.Fatal(err)
		}
		if !seqRes.B.EqualApprox(want, 1e-9) {
			t.Fatalf("mode %d: blocked disagrees", n)
		}
		parRes, err := par.Stationary(x, fs, n, []int{2, 2, 2})
		if err != nil {
			t.Fatal(err)
		}
		if !parRes.B.EqualApprox(want, 1e-9) {
			t.Fatalf("mode %d: stationary disagrees", n)
		}
	}
}

// Model-vs-simulator validation across the overlap range: the Alg3
// float cost model (balanced, no ceilings) equals measured sends when
// everything divides evenly.
func TestModelSimulatorAgreementQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := 1 + rng.Intn(2) // grid extent exponent per dim
		side := 8 << rng.Intn(2)
		R := 4 << rng.Intn(2)
		shape := []int{1 << e, 1 << e, 1 << e}
		P := shape[0] * shape[1] * shape[2]
		if P > side {
			return true // skip imbalanced configs
		}
		dims := []int{side, side, side}
		x := tensor.RandomDense(seed, dims...)
		fs := tensor.RandomFactors(seed+1, dims, R)
		res, err := par.Stationary(x, fs, 0, shape)
		if err != nil {
			return false
		}
		m := costmodel.Model{Dims: []float64{float64(side), float64(side), float64(side)}, R: float64(R)}
		want := m.Alg3Words([]float64{float64(shape[0]), float64(shape[1]), float64(shape[2])})
		return float64(res.MaxSent()) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
