package kernel_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/kernel"
	"repro/internal/seq"
	"repro/internal/tensor"
)

// randomProblem draws a random order-N tensor with dims in [1, maxDim]
// and rank in [1, maxR].
func randomProblem(rng *rand.Rand, order, maxDim, maxR int) (*tensor.Dense, []*tensor.Matrix) {
	dims := make([]int, order)
	for k := range dims {
		dims[k] = 1 + rng.Intn(maxDim)
	}
	R := 1 + rng.Intn(maxR)
	x := tensor.NewDense(dims...)
	d := x.Data()
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	factors := make([]*tensor.Matrix, order)
	for k := range factors {
		factors[k] = tensor.NewMatrix(dims[k], R)
		fd := factors[k].Data()
		for i := range fd {
			fd[i] = rng.NormFloat64()
		}
	}
	return x, factors
}

// TestFastMatchesRefProperty is the engine's main property: for random
// problems of orders 3-5, kernel.Fast agrees with the seq.Ref oracle
// on every mode to 1e-10.
func TestFastMatchesRefProperty(t *testing.T) {
	for order := 3; order <= 5; order++ {
		order := order
		prop := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			x, fs := randomProblem(rng, order, 6, 5)
			for n := 0; n < order; n++ {
				want := seq.Ref(x, fs, n)
				got := kernel.Fast(x, fs, n)
				if !got.EqualApprox(want, 1e-10) {
					t.Logf("order %d mode %d dims %v: max diff %g",
						order, n, x.Dims(), got.MaxAbsDiff(want))
					return false
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
			t.Errorf("order %d: %v", order, err)
		}
	}
}

// TestFastEdgeCases pins the degenerate shapes: R=1, unit extents
// (including the mode being computed and the boundary modes that
// collapse the left/right split), and order 2 where one side of the
// split is always empty.
func TestFastEdgeCases(t *testing.T) {
	cases := []struct {
		dims []int
		R    int
	}{
		{[]int{1, 1, 1}, 1},
		{[]int{1, 4, 3}, 2},
		{[]int{4, 1, 3}, 2},
		{[]int{3, 4, 1}, 2},
		{[]int{5, 3, 4}, 1},
		{[]int{1, 1, 5}, 3},
		{[]int{6, 7}, 4},
		{[]int{1, 6}, 2},
		{[]int{2, 1, 3, 1, 2}, 3},
	}
	rng := rand.New(rand.NewSource(99))
	for _, tc := range cases {
		x := tensor.NewDense(tc.dims...)
		d := x.Data()
		for i := range d {
			d[i] = rng.NormFloat64()
		}
		fs := make([]*tensor.Matrix, len(tc.dims))
		for k := range fs {
			fs[k] = tensor.NewMatrix(tc.dims[k], tc.R)
			fd := fs[k].Data()
			for i := range fd {
				fd[i] = rng.NormFloat64()
			}
		}
		for n := range tc.dims {
			want := seq.Ref(x, fs, n)
			got := kernel.Fast(x, fs, n)
			if !got.EqualApprox(want, 1e-10) {
				t.Errorf("dims %v R=%d mode %d: max diff %g", tc.dims, tc.R, n, got.MaxAbsDiff(want))
			}
		}
	}
}

// TestFastNilOwnFactor verifies factors[n] may be nil, as with seq.Ref.
func TestFastNilOwnFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x, fs := randomProblem(rng, 3, 5, 3)
	for n := 0; n < 3; n++ {
		trimmed := append([]*tensor.Matrix(nil), fs...)
		trimmed[n] = nil
		want := seq.Ref(x, trimmed, n)
		if got := kernel.Fast(x, trimmed, n); !got.EqualApprox(want, 1e-10) {
			t.Errorf("mode %d with nil own factor: mismatch", n)
		}
	}
}

// TestFastWorkersEquivalence: the slab split changes only summation
// order, so any worker count agrees with workers=1 under tolerance.
func TestFastWorkersEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x, fs := randomProblem(rng, 4, 8, 4)
	for n := 0; n < 4; n++ {
		serial := kernel.FastWorkers(x, fs, n, 1)
		for _, w := range []int{2, 3, 8} {
			par := kernel.FastWorkers(x, fs, n, w)
			if !par.EqualApprox(serial, 1e-12) {
				t.Errorf("mode %d workers=%d: max diff %g", n, w, par.MaxAbsDiff(serial))
			}
		}
	}
}

// TestFastMode0BitwiseWorkers: FastInto's mode 0 is bitwise equal at
// workers 1/2/3/8 on both sides of the chunked-prefix rule — 64^3 R8
// runs on fixed buckets, 32^3 R8 stays one GEMM — and the chunked root
// agrees with seq.Ref to 1e-12 relative at orders 3 and 4.
func TestFastMode0BitwiseWorkers(t *testing.T) {
	for _, c := range []struct {
		dims []int
		R    int
	}{{[]int{64, 64, 64}, 8}, {[]int{32, 32, 32}, 8}, {[]int{24, 24, 24, 24}, 8}} {
		x := tensor.RandomDense(19, c.dims...)
		fs := tensor.RandomFactors(23, c.dims, c.R)
		base := kernel.FastWorkers(x, fs, 0, 1)
		for _, w := range []int{2, 3, 8} {
			got := kernel.FastWorkers(x, fs, 0, w)
			bd, gd := base.Data(), got.Data()
			for i := range bd {
				if gd[i] != bd[i] { //repro:bitwise the bitwise worker-count-independence contract under test
					t.Fatalf("dims %v R=%d workers %d elem %d: %x != %x", c.dims, c.R, w, i, gd[i], bd[i])
				}
			}
		}
		if e := relDiff(base, seq.Ref(x, fs, 0)); e > 1e-12 {
			t.Errorf("dims %v R=%d: mode 0 differs from seq.Ref by %.3g relative", c.dims, c.R, e)
		}
	}
}

// relDiff is the largest elementwise difference relative to want's
// largest magnitude.
func relDiff(got, want *tensor.Matrix) float64 {
	scale := 0.0
	for _, v := range want.Data() {
		scale = math.Max(scale, math.Abs(v))
	}
	return got.MaxAbsDiff(want) / scale
}

// TestFastIntoZeroAllocSteadyState enforces the engine contract: after
// warmup, a serial FastInto with a reused workspace and preallocated
// output allocates nothing — the property CP-ALS inner iterations
// rely on.
func TestFastIntoZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x, fs := randomProblem(rng, 3, 16, 4)
	R := fs[0].Cols()
	ws := kernel.NewWorkspace(x.Dims(), R, 1)
	bs := make([]*tensor.Matrix, 3)
	for n := range bs {
		bs[n] = tensor.NewMatrix(x.Dim(n), R)
	}
	sweep := func() {
		for n := 0; n < 3; n++ {
			kernel.FastInto(bs[n], x, fs, n, 1, ws)
		}
	}
	sweep()                                                     // warm the workspace to steady state
	if allocs := testing.AllocsPerRun(10, sweep); allocs != 0 { //repro:bitwise exact allocation count
		t.Errorf("steady-state sweep allocates %v objects/op, want 0", allocs)
	}
	// Two workers past the serial cutoffs: the boundary modes' GEMMs
	// exceed gemmSmall and the interior mode's 16 buckets of 48x24
	// words reach ReduceTree's parallel section. AllocsPerRun pins
	// GOMAXPROCS to 1, so the worker count is explicit.
	x2 := tensor.RandomDense(14, 24, 48, 20)
	fs2 := tensor.RandomFactors(15, x2.Dims(), 24)
	ws2 := kernel.NewWorkspace(x2.Dims(), 24, 1)
	for n := range bs {
		bs[n] = tensor.NewMatrix(x2.Dim(n), 24)
	}
	sweep2 := func() {
		for n := 0; n < 3; n++ {
			kernel.FastInto(bs[n], x2, fs2, n, 2, ws2)
		}
	}
	sweep2()
	if allocs := testing.AllocsPerRun(10, sweep2); allocs != 0 { //repro:bitwise exact allocation count
		t.Errorf("steady-state 2-worker sweep allocates %v objects/op, want 0", allocs)
	}
	// Two workers on a chunked prefix root: mode 0 of 64^3 R8 forms its
	// KR rows in slot scratch and merges 16 buckets.
	x3 := tensor.RandomDense(16, 64, 64, 64)
	fs3 := tensor.RandomFactors(17, x3.Dims(), 8)
	ws3 := kernel.NewWorkspace(x3.Dims(), 8, 0)
	b3 := tensor.NewMatrix(64, 8)
	mode0 := func() { kernel.FastInto(b3, x3, fs3, 0, 2, ws3) }
	mode0()
	if allocs := testing.AllocsPerRun(10, mode0); allocs != 0 { //repro:bitwise exact allocation count
		t.Errorf("steady-state 2-worker chunked mode 0 allocates %v objects/op, want 0", allocs)
	}
}

// TestReduceTree checks the reduction against a serial sum and its
// bitwise independence from the worker count.
func TestReduceTree(t *testing.T) {
	const m, n = 7, 1 << 15
	mk := func() [][]float64 {
		rng := rand.New(rand.NewSource(17))
		bufs := make([][]float64, m)
		for i := range bufs {
			bufs[i] = make([]float64, n)
			for j := range bufs[i] {
				bufs[i][j] = rng.NormFloat64()
			}
		}
		return bufs
	}
	want := make([]float64, n)
	for _, buf := range mk() {
		for j, v := range buf {
			want[j] += v
		}
	}
	serial := mk()
	kernel.ReduceTree(serial, 1)
	parallel := mk()
	kernel.ReduceTree(parallel, 8)
	for j := 0; j < n; j++ {
		if serial[0][j] != parallel[0][j] { //repro:bitwise the bitwise worker-count-independence contract under test
			t.Fatalf("tree reduction depends on worker count at %d", j)
		}
		if d := serial[0][j] - want[j]; d > 1e-12 || d < -1e-12 {
			t.Fatalf("tree reduction wrong at %d: got %g want %g", j, serial[0][j], want[j])
		}
	}
}
