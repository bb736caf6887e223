package tensor

import "testing"

// TestCheckFactors: one table over every rejection class, at both
// precisions, for a single mode and AllModes, with unit extents; the
// valid path allocates nothing.
func TestCheckFactors(t *testing.T) {
	dims := []int{3, 1, 4}
	x := NewDense(dims...)
	good := RandomFactors(1, dims, 2)
	with := func(k int, f *Matrix) []*Matrix {
		fs := append([]*Matrix(nil), good...)
		fs[k] = f
		return fs
	}
	for _, c := range []struct {
		name    string
		x       *Dense
		factors []*Matrix
		n, R    int // R = 0: rejected
	}{
		{"valid mode 0", x, good, 0, 2},
		{"valid unit-extent mode", x, good, 1, 2},
		{"valid all modes", x, good, AllModes, 2},
		{"output factor may be nil", x, with(2, nil), 2, 2},
		{"output factor shape is not read", x, with(0, NewMatrix(7, 5)), 0, 2},
		{"order 1", NewDense(3), good[:1], 0, 0},
		{"order 1, all modes", NewDense(3), good[:1], AllModes, 0},
		{"too few factors", x, good[:2], 0, 0},
		{"too many factors", x, append(with(0, good[0]), good[0]), 0, 0},
		{"mode N", x, good, 3, 0},
		{"mode -1", x, good, -1, 0},
		{"mode -2", x, good, -2, 0},
		{"nil factor", x, with(1, nil), 0, 0},
		{"nil factor, all modes", x, with(2, nil), AllModes, 0},
		{"wrong rows", x, with(1, NewMatrix(2, 2)), 0, 0},
		{"mixed ranks", x, with(2, NewMatrix(4, 3)), 0, 0},
		{"mixed ranks, all modes", x, with(0, NewMatrix(3, 1)), AllModes, 0},
	} {
		R, err := CheckFactors(c.x, c.factors, c.n)
		if (err == nil) != (c.R > 0) || R != c.R {
			t.Errorf("%s: R %d, error %v; want R %d", c.name, R, err, c.R)
		}
		// The float32 storage path takes the same verdicts.
		x32 := NewDense32(c.x.Dims()...)
		f32 := make([]*Matrix32, len(c.factors))
		for k, f := range c.factors {
			if f != nil {
				f32[k] = Matrix32FromMatrix(f)
			}
		}
		R32, err32 := CheckFactors(x32, f32, c.n)
		if R32 != R || (err32 == nil) != (err == nil) {
			t.Errorf("%s: float32 R %d, error %v; float64 R %d, error %v", c.name, R32, err32, R, err)
		}
	}
	var R int
	if allocs := testing.AllocsPerRun(100, func() { R, _ = CheckFactors(x, good, AllModes) }); allocs != 0 || R != 2 { //repro:bitwise exact allocation count
		t.Errorf("valid check allocates %v objects (R %d), want 0", allocs, R)
	}
}
