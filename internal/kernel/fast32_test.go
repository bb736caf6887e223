package kernel_test

import (
	"math/rand"
	"testing"

	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/seq"
	"repro/internal/simd"
	"repro/internal/tensor"
)

// round32 converts a float64 problem to float32 storage and returns
// both the narrow copies and the exactly-widened float64 views, so an
// oracle can run on precisely the values the float32 path sees.
func round32(x *tensor.Dense, fs []*tensor.Matrix) (*tensor.Dense32, []*tensor.Matrix32, *tensor.Dense, []*tensor.Matrix) {
	x32 := tensor.Dense32FromDense(x)
	fs32 := make([]*tensor.Matrix32, len(fs))
	wide := make([]*tensor.Matrix, len(fs))
	for k := range fs {
		fs32[k] = tensor.Matrix32FromMatrix(fs[k])
		wide[k] = fs32[k].ToMatrix()
	}
	return x32, fs32, x32.ToDense(), wide
}

// TestFast32MatchesRef: the float32 engine agrees with the seq.Ref
// oracle run on the exactly-widened inputs, up to the single float32
// store rounding (relative ~1e-7; 1e-5 absolute covers the tested
// magnitudes). Checked on the active dispatch path and forced scalar.
func TestFast32MatchesRef(t *testing.T) {
	run := func(t *testing.T) {
		rng := rand.New(rand.NewSource(41))
		for trial := 0; trial < 10; trial++ {
			order := 3 + trial%3
			x, fs := randomProblem(rng, order, 6, 5)
			x32, fs32, xw, fsw := round32(x, fs)
			for n := 0; n < order; n++ {
				want := seq.Ref(xw, fsw, n)
				got := kernel.Fast32(x32, fs32, n)
				if d := got.MaxAbsDiff(want); d > 1e-5 {
					t.Errorf("order %d mode %d dims %v: max diff %g", order, n, x.Dims(), d)
				}
			}
		}
	}
	t.Run("dispatch="+simd.Path(), run)
	restore := simd.ForceScalar()
	defer restore()
	t.Run("dispatch=scalar", run)
}

// TestFast32WorkersBitwise: the float32 path inherits the fixed-chunk
// tiling and ReduceTree association, so every worker count stores the
// identical float32 result.
func TestFast32WorkersBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	x, fs := randomProblem(rng, 4, 8, 4)
	x32, fs32, _, _ := round32(x, fs)
	R := fs[0].Cols()
	ws := kernel.NewWorkspace(x.Dims(), R, 1)
	for n := 0; n < 4; n++ {
		serial := tensor.NewMatrix32(x.Dim(n), R)
		kernel.Fast32Into(serial, x32, fs32, n, 1, ws)
		for _, w := range []int{2, 3, 8} {
			par := tensor.NewMatrix32(x.Dim(n), R)
			kernel.Fast32Into(par, x32, fs32, n, w, ws)
			for i, v := range par.Data() {
				if v != serial.Data()[i] { //repro:bitwise the worker-count-independence contract under test
					t.Fatalf("mode %d workers=%d: differs from serial at %d", n, w, i)
				}
			}
		}
	}
}

// TestFast32ZeroAllocSteadyState: the float32 engine keeps the
// zero-allocation steady state of FastInto, including its extra
// float64 output accumulator.
func TestFast32ZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	x, fs := randomProblem(rng, 3, 16, 4)
	x32, fs32, _, _ := round32(x, fs)
	R := fs[0].Cols()
	ws := kernel.NewWorkspace(x.Dims(), R, 1)
	bs := make([]*tensor.Matrix32, 3)
	for n := range bs {
		bs[n] = tensor.NewMatrix32(x.Dim(n), R)
	}
	sweep := func() {
		for n := 0; n < 3; n++ {
			kernel.Fast32Into(bs[n], x32, fs32, n, 1, ws)
		}
	}
	sweep()                                                     // warm the workspace (out64 included) to steady state
	if allocs := testing.AllocsPerRun(10, sweep); allocs != 0 { //repro:bitwise exact allocation count
		t.Errorf("steady-state float32 sweep allocates %v objects/op, want 0", allocs)
	}
	// Two workers past the serial cutoffs, as in
	// TestFastIntoZeroAllocSteadyState.
	x2 := tensor.RandomDense(48, 24, 48, 20)
	x2f32, fs2f32, _, _ := round32(x2, tensor.RandomFactors(49, x2.Dims(), 24))
	ws2 := kernel.NewWorkspace(x2.Dims(), 24, 1)
	for n := range bs {
		bs[n] = tensor.NewMatrix32(x2.Dim(n), 24)
	}
	sweep2 := func() {
		for n := 0; n < 3; n++ {
			kernel.Fast32Into(bs[n], x2f32, fs2f32, n, 2, ws2)
		}
	}
	sweep2()
	if allocs := testing.AllocsPerRun(10, sweep2); allocs != 0 { //repro:bitwise exact allocation count
		t.Errorf("steady-state 2-worker float32 sweep allocates %v objects/op, want 0", allocs)
	}
}

// TestFast32ObsHalfWords: the float32 engine runs the identical
// streaming schedule (same element counts), so a word-size-4 report
// shows exactly half the measured words of the float64 run — the
// bound-ratio honesty contract of the float32 path.
func TestFast32ObsHalfWords(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	x, fs := randomProblem(rng, 4, 7, 5)
	x32, fs32, _, _ := round32(x, fs)
	R := fs[0].Cols()
	col := obs.New(0)
	obs.Enable(col)
	defer obs.Disable()
	ws := kernel.NewWorkspace(x.Dims(), R, 1)
	for n := 0; n < 4; n++ {
		col.Reset()
		b := tensor.NewMatrix(x.Dim(n), R)
		kernel.FastInto(b, x, fs, n, 1, ws)
		rep64 := obs.NewReport("t", "fast", x.Dims(), R, n, obs.Machine{Workers: 1})
		rep64.FillFromCollector(col)

		col.Reset()
		b32 := tensor.NewMatrix32(x.Dim(n), R)
		kernel.Fast32Into(b32, x32, fs32, n, 1, ws)
		rep32 := obs.NewReport("t", "fast", x.Dims(), R, n, obs.Machine{Workers: 1})
		rep32.WordBytes = 4
		rep32.FillFromCollector(col)

		if 2*rep32.MeasuredWords != rep64.MeasuredWords { //repro:bitwise identical schedule, half the bytes per element
			t.Errorf("mode %d: f32 measured %d words, f64 measured %d — want exactly half",
				n, rep32.MeasuredWords, rep64.MeasuredWords)
		}
	}
}
