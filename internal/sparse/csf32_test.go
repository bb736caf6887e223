package sparse

import (
	"testing"

	"repro/internal/simd"
	"repro/internal/tensor"
)

// round32Factors narrows a factor set to float32 and returns the
// exactly-widened float64 copies alongside.
func round32Factors(fs []*tensor.Matrix) ([]*tensor.Matrix32, []*tensor.Matrix) {
	fs32 := make([]*tensor.Matrix32, len(fs))
	wide := make([]*tensor.Matrix, len(fs))
	for k := range fs {
		fs32[k] = tensor.Matrix32FromMatrix(fs[k])
		wide[k] = fs32[k].ToMatrix()
	}
	return fs32, wide
}

// TestCSFF32MatchesF64Bitwise: after EnableF32Values re-rounds the
// float64 value stream, the float32 kernel walks exactly the numbers
// the float64 kernel walks (factor widening is exact, accumulation is
// shared), so MTTKRP32 must equal the rounded float64 MTTKRP bitwise —
// on the active dispatch path and forced scalar. The inputs cover a
// general rank, R=16 (the kernels' register paths) and an order-2
// tensor, whose leaves hang directly under the root.
func TestCSFF32MatchesF64Bitwise(t *testing.T) {
	cases := []struct {
		dims   []int
		nnz, R int
	}{
		{[]int{7, 6, 5, 4}, 180, 3},
		{[]int{7, 6, 5, 4}, 180, 16},
		{[]int{9, 7}, 30, 3},
	}
	run := func(t *testing.T) {
		for _, tc := range cases {
			dims, R := tc.dims, tc.R
			s := Random(71, tc.nnz, dims...)
			fs := tensor.RandomFactors(72, dims, R)
			fs32, wide := round32Factors(fs)
			for root := range dims {
				cs := FromCOO(s, root)
				cs.EnableF32Values()
				if !cs.F32Values() {
					t.Fatal("EnableF32Values did not stick")
				}
				for n := range dims {
					want := cs.MTTKRP(wide, n)
					got := cs.MTTKRP32(fs32, n)
					wd := want.Data()
					for i, v := range got.Data() {
						if v != float32(wd[i]) { //repro:bitwise shared walk + exact widening: only the final store rounds
							t.Fatalf("%v R=%d root %d mode %d: f32 kernel diverges at %d: %v vs %v",
								dims, R, root, n, i, v, float32(wd[i]))
						}
					}
				}
				w64 := cs.AllModes(wide, 1)
				w32 := cs.AllModes32(fs32, 1)
				for k := range dims {
					wd := w64[k].Data()
					for i, v := range w32[k].Data() {
						if v != float32(wd[i]) { //repro:bitwise all-modes pass shares the identical walk
							t.Fatalf("%v R=%d root %d all-modes out %d: diverges at %d", dims, R, root, k, i)
						}
					}
				}
			}
		}
	}
	t.Run("dispatch="+simd.Path(), run)
	restore := simd.ForceScalar()
	defer restore()
	t.Run("dispatch=scalar", run)
}

// TestCSFF32WorkersBitwise: the float32 entry points keep the
// fixed-chunk scheduling, so every worker count stores the identical
// float32 result. The inputs cover a general rank, R=16 and an order-2
// tensor.
func TestCSFF32WorkersBitwise(t *testing.T) {
	cases := []struct {
		dims   []int
		nnz, R int
	}{
		{[]int{16, 12, 9}, 500, 4},
		{[]int{16, 12, 9}, 500, 16},
		{[]int{40, 30}, 500, 4},
	}
	for _, tc := range cases {
		dims, R := tc.dims, tc.R
		s := Random(73, tc.nnz, dims...)
		fs := tensor.RandomFactors(74, dims, R)
		fs32, _ := round32Factors(fs)
		cs := FromCOO(s, 0)
		cs.EnableF32Values()
		for n := range dims {
			serial := tensor.NewMatrix32(dims[n], R)
			cs.MTTKRPInto32(serial, fs32, n, 1, nil)
			for _, w := range []int{2, 3, 8} {
				par := tensor.NewMatrix32(dims[n], R)
				cs.MTTKRPInto32(par, fs32, n, w, nil)
				for i, v := range par.Data() {
					if v != serial.Data()[i] { //repro:bitwise the worker-count-independence contract under test
						t.Fatalf("%v R=%d mode %d workers=%d: differs from serial at %d", dims, R, n, w, i)
					}
				}
			}
		}
	}
}

// TestEnableF32ValuesRerounds: the float64 stream is re-rounded in
// place so ToCOO and the reference kernels agree exactly with what the
// float32 stream holds, and enabling twice is a no-op.
func TestEnableF32ValuesRerounds(t *testing.T) {
	s := Random(75, 60, 8, 7, 6)
	cs := FromCOO(s, 1)
	cs.EnableF32Values()
	for i, v := range cs.vals {
		if v != float64(cs.vals32[i]) { //repro:bitwise re-round invariant: both streams hold the same values
			t.Fatalf("vals[%d] = %v not re-rounded to %v", i, v, float64(cs.vals32[i]))
		}
	}
	before := append([]float32(nil), cs.vals32...)
	cs.EnableF32Values()
	for i, v := range cs.vals32 {
		if v != before[i] { //repro:bitwise idempotence: the second enable must not touch the stream
			t.Fatalf("second EnableF32Values changed vals32[%d]", i)
		}
	}
	// The rounded tree still round-trips through COO consistently.
	rt := FromCOO(cs.ToCOO(), 1)
	for i, v := range rt.vals {
		if v != cs.vals[i] { //repro:bitwise COO round-trip of the rounded values
			t.Fatalf("round-trip val %d: %v vs %v", i, v, cs.vals[i])
		}
	}
}

// TestCSFF32ZeroAllocSteadyState: the float32 entry points keep the
// zero-allocation steady state with a reused workspace.
func TestCSFF32ZeroAllocSteadyState(t *testing.T) {
	dims := []int{14, 11, 9}
	R := 4
	s := Random(77, 300, dims...)
	fs := tensor.RandomFactors(78, dims, R)
	fs32, _ := round32Factors(fs)
	cs := FromCOO(s, 0)
	cs.EnableF32Values()
	ws := NewWorkspace()
	b := tensor.NewMatrix32(dims[1], R)
	pass := func() { cs.MTTKRPInto32(b, fs32, 1, 1, ws) }
	pass()                                                     // warm to steady state
	if allocs := testing.AllocsPerRun(10, pass); allocs != 0 { //repro:bitwise exact allocation count
		t.Errorf("steady-state float32 pass allocates %v objects/op, want 0", allocs)
	}
}
