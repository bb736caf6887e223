package repro

import (
	"math"
	"testing"

	"repro/internal/seq"
)

// mttkrp is MTTKRP on arguments the test knows to be valid.
func mttkrp(t *testing.T, x *Dense, fs []*Matrix, n int) *Matrix {
	t.Helper()
	b, err := MTTKRP(x, fs, n)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFacadeMTTKRP(t *testing.T) {
	dims := []int{6, 5, 4}
	x := RandomDense(1, dims...)
	fs := RandomFactors(2, dims, 3)
	b := mttkrp(t, x, fs, 0)
	if b.Rows() != 6 || b.Cols() != 3 {
		t.Fatalf("B shape %dx%d", b.Rows(), b.Cols())
	}
}

// MTTKRPParallel is bitwise identical at every worker count and agrees
// with the Definition 2.1 reference on a shape no worker count divides.
func TestFacadeMTTKRPParallelBitwise(t *testing.T) {
	dims := []int{17, 13, 11}
	x := RandomDense(5, dims...)
	fs := RandomFactors(6, dims, 7)
	for n := range dims {
		want := seq.Ref(x, fs, n)
		one, err := MTTKRPParallel(x, fs, n, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !one.EqualApprox(want, 1e-9) {
			t.Fatalf("mode %d: maxdiff %v against seq.Ref", n, one.MaxAbsDiff(want))
		}
		for _, w := range []int{2, 3, 8} {
			got, err := MTTKRPParallel(x, fs, n, w)
			if err != nil {
				t.Fatal(err)
			}
			if d := got.MaxAbsDiff(one); d != 0 { //repro:bitwise the worker-count-independence contract under test
				t.Fatalf("mode %d workers %d: maxdiff %v against workers 1", n, w, d)
			}
		}
	}
}

func TestFacadeSequential(t *testing.T) {
	dims := []int{6, 6, 6}
	x := RandomDense(3, dims...)
	fs := RandomFactors(4, dims, 2)
	res, err := SequentialMTTKRP(x, fs, 1, SeqOptions{M: 256})
	if err != nil {
		t.Fatal(err)
	}
	if !res.B.EqualApprox(mttkrp(t, x, fs, 1), 1e-9) {
		t.Fatal("facade sequential result wrong")
	}
	if res.Counts.Words() <= 0 {
		t.Fatal("no words counted")
	}
}

func TestFacadeParallel(t *testing.T) {
	dims := []int{8, 8, 8}
	x := RandomDense(5, dims...)
	fs := RandomFactors(6, dims, 4)
	res, err := ParallelMTTKRP(x, fs, 2, ParOptions{P: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !res.B.EqualApprox(mttkrp(t, x, fs, 2), 1e-9) {
		t.Fatal("facade parallel result wrong")
	}
	if res.MaxWords() <= 0 {
		t.Fatal("expected communication at P=8")
	}
}

func TestFacadeBounds(t *testing.T) {
	b := LowerBounds([]int{16, 16, 16}, 8, 128, 8)
	if b.SeqMemDependent <= 0 {
		t.Fatalf("bounds: %+v", b)
	}
}

func TestFacadeCPALS(t *testing.T) {
	dims := []int{6, 6, 6}
	truth := RandomFactors(7, dims, 2)
	x := FromFactors(truth)
	model, trace, err := CPDecompose(x, CPOptions{R: 2, MaxIters: 100, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if model.Fit < 0.99 || len(trace) == 0 {
		t.Fatalf("fit %v", model.Fit)
	}
}

func TestFacadeCPALSParallel(t *testing.T) {
	dims := []int{8, 8, 8}
	x := RandomDense(11, dims...)
	res, err := CPDecomposeParallel(x, []int{2, 2, 2}, CPOptions{R: 2, MaxIters: 3, Tol: 0, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxMTTKRPWords() <= 0 {
		t.Fatal("no MTTKRP communication recorded")
	}
}

func TestFacadeFig4(t *testing.T) {
	rows := Fig4(10)
	if len(rows) != 11 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[10].Stationary >= rows[10].Matmul {
		t.Fatal("at P=2^10 the stationary algorithm should win")
	}
}

func TestFacadeConstructors(t *testing.T) {
	x := NewDense(2, 3)
	if x.Elems() != 6 {
		t.Fatal("NewDense")
	}
	m := NewMatrix(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatal("NewMatrix")
	}
}

func TestFacadeAllModes(t *testing.T) {
	dims := []int{5, 4, 5}
	x := RandomDense(15, dims...)
	fs := RandomFactors(16, dims, 3)
	res, err := MTTKRPAllModes(x, fs)
	if err != nil {
		t.Fatal(err)
	}
	for n := range dims {
		if !res.B[n].EqualApprox(mttkrp(t, x, fs, n), 1e-9) {
			t.Fatalf("mode %d mismatch", n)
		}
	}
	if res.Flops <= 0 {
		t.Fatal("flops not counted")
	}
}

func TestFacadeGradient(t *testing.T) {
	dims := []int{5, 5, 5}
	truth := RandomFactors(17, dims, 2)
	x := FromFactors(truth)
	grads, f, flops := CPGradient(x, truth)
	if len(grads) != 3 || flops <= 0 {
		t.Fatal("gradient output malformed")
	}
	if f > 1e-10 {
		t.Fatalf("objective at the exact solution should be ~0, got %v", f)
	}
	model, trace, err := CPDecomposeGradient(x, CPGradOptions{R: 2, MaxIters: 20, Seed: 18})
	if err != nil || len(trace) == 0 {
		t.Fatalf("gradient descent failed: %v", err)
	}
	if model.Fit < 0 {
		t.Fatal("nonsense fit")
	}
}

func TestFacadeTucker(t *testing.T) {
	x := RandomDense(19, 8, 8, 8)
	model, trace, err := TuckerDecompose(x, TuckerOptions{Ranks: []int{3, 3, 3}, MaxIters: 3, Tol: math.Inf(-1)})
	if err != nil || len(trace) != 3 {
		t.Fatalf("tucker: %v (trace %d)", err, len(trace))
	}
	if model.Core.Dims()[0] != 3 {
		t.Fatal("core shape")
	}
	par, err := TuckerDecomposeParallel(x, []int{2, 2, 2}, TuckerOptions{Ranks: []int{3, 3, 3}, MaxIters: 3, Tol: 0}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if par.MaxWords() <= 0 {
		t.Fatal("no all-reduce communication recorded")
	}
}

func TestFacadeTTM(t *testing.T) {
	x := RandomDense(21, 4, 5)
	u := RandomFactors(22, []int{4}, 2)[0]
	y := TTM(x, u, 0)
	if y.Dim(0) != 2 || y.Dim(1) != 5 {
		t.Fatalf("TTM shape %v", y.Dims())
	}
}

func TestFacadeSparse(t *testing.T) {
	dims := []int{6, 6, 6}
	s := RandomSparse(23, 30, dims...)
	fs := RandomFactors(24, dims, 2)
	b, err := SparseMTTKRP(s, fs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.Rows() != 6 || b.Cols() != 2 {
		t.Fatal("sparse MTTKRP shape")
	}
	// Volume of the trivial single-part partition is zero.
	part := SparsePartition{P: 1, Assign: make([]int, s.NNZ())}
	if SparseCommVolume(s, part, 0, 2) != 0 {
		t.Fatal("single-part volume should be 0")
	}
}

func TestFacadeOptimalSchedule(t *testing.T) {
	opt, err := OptimalScheduleWords([]int{1, 1}, 1, 0, 3, 100000)
	if err != nil || opt != 3 {
		t.Fatalf("opt = %d, err = %v; want 3", opt, err)
	}
}
