package core

import (
	"testing"

	"repro/internal/seq"
	"repro/internal/tensor"
)

func problem(t *testing.T) (*tensor.Dense, []*tensor.Matrix) {
	t.Helper()
	dims := []int{8, 8, 8}
	return tensor.RandomDense(1, dims...), tensor.RandomFactors(2, dims, 4)
}

func TestSequentialAlgorithms(t *testing.T) {
	x, fs := problem(t)
	want := seq.Ref(x, fs, 1)
	for _, alg := range []SeqAlgorithm{SeqAuto, SeqUnblocked, SeqBlocked, SeqViaMatmul} {
		res, err := Sequential(x, fs, 1, SeqOptions{Algorithm: alg, M: 512})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if !res.B.EqualApprox(want, 1e-9) {
			t.Fatalf("%v: wrong result", alg)
		}
		if res.Counts.Words() <= 0 {
			t.Fatalf("%v: no communication counted", alg)
		}
	}
}

func TestSequentialAutoBeatsUnblocked(t *testing.T) {
	x, fs := problem(t)
	auto, err := Sequential(x, fs, 0, SeqOptions{M: 512})
	if err != nil {
		t.Fatal(err)
	}
	unb, err := Sequential(x, fs, 0, SeqOptions{Algorithm: SeqUnblocked, M: 512})
	if err != nil {
		t.Fatal(err)
	}
	if auto.Counts.Words() >= unb.Counts.Words() {
		t.Fatalf("auto (blocked) %d words should beat unblocked %d",
			auto.Counts.Words(), unb.Counts.Words())
	}
}

func TestSequentialExplicitBlockSize(t *testing.T) {
	x, fs := problem(t)
	res, err := Sequential(x, fs, 0, SeqOptions{Algorithm: SeqBlocked, M: 512, BlockSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.B.EqualApprox(seq.Ref(x, fs, 0), 1e-9) {
		t.Fatal("wrong result with explicit block size")
	}
}

func TestSequentialErrors(t *testing.T) {
	x, fs := problem(t)
	if _, err := Sequential(x, fs, 0, SeqOptions{M: 0}); err == nil {
		t.Fatal("M=0 should error")
	}
	if _, err := Sequential(x, fs, 0, SeqOptions{Algorithm: SeqAlgorithm(99), M: 64}); err == nil {
		t.Fatal("unknown algorithm should error")
	}
	if _, err := Sequential(x, fs, 0, SeqOptions{Algorithm: SeqBlocked, M: 64, BlockSize: 10}); err == nil {
		t.Fatal("oversized block should error")
	}
}

func TestParallelAlgorithms(t *testing.T) {
	x, fs := problem(t)
	want := seq.Ref(x, fs, 2)
	for _, alg := range []ParAlgorithm{ParAuto, ParStationary, ParGeneral, ParViaMatmul} {
		res, err := Parallel(x, fs, 2, ParOptions{Algorithm: alg, P: 8})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if !res.B.EqualApprox(want, 1e-9) {
			t.Fatalf("%v: wrong result", alg)
		}
	}
}

func TestParallelExplicitGrid(t *testing.T) {
	x, fs := problem(t)
	res, err := Parallel(x, fs, 0, ParOptions{Algorithm: ParStationary, Grid: []int{2, 2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != 8 {
		t.Fatalf("expected 8 ranks, got %d", len(res.Stats))
	}
	res4, err := Parallel(x, fs, 0, ParOptions{Algorithm: ParGeneral, Grid: []int{2, 2, 2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.B.EqualApprox(res4.B, 1e-9) {
		t.Fatal("explicit-grid runs disagree")
	}
}

func TestParallelAutoPicksRegime(t *testing.T) {
	// Small R, large I/P: auto should behave like Stationary (its
	// chosen grid cost matches the stationary best).
	dims := []int{8, 8, 8}
	x := tensor.RandomDense(3, dims...)
	small := tensor.RandomFactors(4, dims, 2)
	resAuto, err := Parallel(x, small, 0, ParOptions{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	resStat, err := Parallel(x, small, 0, ParOptions{Algorithm: ParStationary, P: 4})
	if err != nil {
		t.Fatal(err)
	}
	if resAuto.MaxWords() != resStat.MaxWords() {
		t.Fatalf("auto (%d words) should match stationary (%d words) for small R",
			resAuto.MaxWords(), resStat.MaxWords())
	}
	// Large R: auto should pick General with P0 > 1 and win.
	big := tensor.RandomFactors(5, dims, 64)
	resAutoBig, err := Parallel(x, big, 0, ParOptions{P: 16})
	if err != nil {
		t.Fatal(err)
	}
	resStatBig, err := Parallel(x, big, 0, ParOptions{Algorithm: ParStationary, P: 16})
	if err != nil {
		t.Fatal(err)
	}
	if resAutoBig.MaxWords() >= resStatBig.MaxWords() {
		t.Fatalf("auto (%d) should beat stationary (%d) for large R",
			resAutoBig.MaxWords(), resStatBig.MaxWords())
	}
}

func TestParallelErrors(t *testing.T) {
	x, fs := problem(t)
	if _, err := Parallel(x, fs, 0, ParOptions{Algorithm: ParAlgorithm(42), P: 4}); err == nil {
		t.Fatal("unknown algorithm should error")
	}
	if _, err := Parallel(x, fs, 0, ParOptions{Algorithm: ParStationary, P: 4096}); err == nil {
		t.Fatal("infeasible P should error")
	}
}

func TestAllBounds(t *testing.T) {
	b := AllBounds([]int{16, 16, 16}, 8, 128, 8)
	if b.SeqMemDependent <= 0 || b.SeqTrivial <= 0 {
		t.Fatalf("sequential bounds should be positive here: %+v", b)
	}
	if b.ParIndependent2 <= 0 {
		t.Fatalf("Theorem 4.3 bound should be positive here: %+v", b)
	}
}

func TestAlgorithmStrings(t *testing.T) {
	if SeqBlocked.String() != "blocked" || SeqAlgorithm(77).String() == "" {
		t.Fatal("SeqAlgorithm strings")
	}
	if ParGeneral.String() != "general" || ParAlgorithm(77).String() == "" {
		t.Fatal("ParAlgorithm strings")
	}
	if SeqAuto.String() != "auto" || SeqUnblocked.String() != "unblocked" || SeqViaMatmul.String() != "via-matmul" {
		t.Fatal("SeqAlgorithm strings")
	}
	if ParAuto.String() != "auto" || ParStationary.String() != "stationary" || ParViaMatmul.String() != "via-matmul-1d" {
		t.Fatal("ParAlgorithm strings")
	}
}
