package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewDenseShape(t *testing.T) {
	x := NewDense(2, 3, 4)
	if x.Order() != 3 {
		t.Fatalf("Order = %d, want 3", x.Order())
	}
	if x.Elems() != 24 {
		t.Fatalf("Elems = %d, want 24", x.Elems())
	}
	if got := x.Dims(); got[0] != 2 || got[1] != 3 || got[2] != 4 {
		t.Fatalf("Dims = %v", got)
	}
	for k, want := range []int{2, 3, 4} {
		if x.Dim(k) != want {
			t.Fatalf("Dim(%d) = %d, want %d", k, x.Dim(k), want)
		}
	}
}

func TestNewDensePanics(t *testing.T) {
	cases := [][]int{{}, {0}, {3, -1}, {2, 0, 5}}
	for _, dims := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewDense(%v) did not panic", dims)
				}
			}()
			NewDense(dims...)
		}()
	}
}

func TestNewDenseFromDataLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	NewDenseFromData(make([]float64, 5), 2, 3)
}

func TestOffsetColumnMajor(t *testing.T) {
	x := NewDense(2, 3, 4)
	// Column-major: first index fastest.
	if got := x.Offset(0, 0, 0); got != 0 {
		t.Fatalf("Offset(0,0,0) = %d", got)
	}
	if got := x.Offset(1, 0, 0); got != 1 {
		t.Fatalf("Offset(1,0,0) = %d", got)
	}
	if got := x.Offset(0, 1, 0); got != 2 {
		t.Fatalf("Offset(0,1,0) = %d", got)
	}
	if got := x.Offset(0, 0, 1); got != 6 {
		t.Fatalf("Offset(0,0,1) = %d", got)
	}
	if got := x.Offset(1, 2, 3); got != 1+2*2+3*6 {
		t.Fatalf("Offset(1,2,3) = %d", got)
	}
}

func TestOffsetMultiIndexRoundTrip(t *testing.T) {
	x := NewDense(3, 4, 2, 5)
	for off := 0; off < x.Elems(); off++ {
		idx := x.MultiIndex(off)
		if back := x.Offset(idx...); back != off {
			t.Fatalf("round trip failed: off=%d idx=%v back=%d", off, idx, back)
		}
	}
}

func TestAtSet(t *testing.T) {
	x := NewDense(3, 3)
	x.Set(2.5, 1, 2)
	if got := x.At(1, 2); got != 2.5 {
		t.Fatalf("At = %v, want 2.5", got)
	}
	if got := x.At(2, 1); got != 0 {
		t.Fatalf("At(2,1) = %v, want 0", got)
	}
}

func TestOutOfBoundsPanics(t *testing.T) {
	x := NewDense(2, 2)
	for _, idx := range [][]int{{2, 0}, {0, 2}, {-1, 0}, {0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%v) did not panic", idx)
				}
			}()
			x.At(idx...)
		}()
	}
}

func TestCloneIsDeep(t *testing.T) {
	x := RandomDense(1, 4, 5)
	y := x.Clone()
	y.Set(99, 0, 0)
	if x.At(0, 0) == 99 {
		t.Fatal("Clone aliases original data")
	}
	y.Set(x.At(0, 0), 0, 0)
	if !x.EqualApprox(y, 0) {
		t.Fatal("Clone differs from original")
	}
}

func TestFillAndNorm(t *testing.T) {
	x := NewDense(2, 2)
	x.Fill(3)
	if got, want := x.Norm(), 6.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Norm = %v, want %v", got, want)
	}
}

func TestAdd(t *testing.T) {
	x := RandomDense(2, 3, 3)
	y := RandomDense(3, 3, 3)
	z := x.Clone()
	z.Add(2, y)
	for off := 0; off < x.Elems(); off++ {
		idx := x.MultiIndex(off)
		want := x.At(idx...) + 2*y.At(idx...)
		if math.Abs(z.At(idx...)-want) > 1e-12 {
			t.Fatalf("Add mismatch at %v", idx)
		}
	}
}

func TestAddShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDense(2, 2).Add(1, NewDense(2, 3))
}

func TestSubTensor(t *testing.T) {
	x := RandomDense(4, 3, 4, 5)
	lo := []int{1, 0, 2}
	hi := []int{3, 2, 5}
	s := x.SubTensor(lo, hi)
	if got := s.Dims(); got[0] != 2 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("SubTensor dims = %v", got)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			for k := 0; k < 3; k++ {
				if s.At(i, j, k) != x.At(lo[0]+i, lo[1]+j, lo[2]+k) {
					t.Fatalf("SubTensor mismatch at (%d,%d,%d)", i, j, k)
				}
			}
		}
	}
}

// TestSubTensorMatchesElementwise: random blocks of random tensors of
// orders 1-5, unit extents included, equal the per-element definition
// out(i) = x(lo + i) bitwise.
func TestSubTensorMatchesElementwise(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		order := 1 + trial%5
		dims := make([]int, order)
		lo := make([]int, order)
		hi := make([]int, order)
		for k := range dims {
			dims[k] = 1 + rng.Intn(6)
			lo[k] = rng.Intn(dims[k])
			hi[k] = lo[k] + 1 + rng.Intn(dims[k]-lo[k])
		}
		x := RandomDense(int64(trial), dims...)
		s := x.SubTensor(lo, hi)
		idx := make([]int, order)
		src := make([]int, order)
		for off := 0; off < s.Elems(); off++ {
			for k := range idx {
				src[k] = lo[k] + idx[k]
			}
			if got, want := s.Data()[off], x.At(src...); got != want { //repro:bitwise a copy must reproduce every element exactly
				t.Fatalf("dims %v block [%v, %v) at %v: got %v, want %v", dims, lo, hi, idx, got, want)
			}
			incIndex(idx, s.dims)
		}
	}
}

func TestSubTensorFull(t *testing.T) {
	x := RandomDense(5, 3, 4)
	s := x.SubTensor([]int{0, 0}, []int{3, 4})
	if !s.EqualApprox(x, 0) {
		t.Fatal("full SubTensor differs from original")
	}
}

func TestSubTensorBadRangePanics(t *testing.T) {
	x := NewDense(3, 3)
	for _, c := range []struct{ lo, hi []int }{
		{[]int{0, 0}, []int{4, 3}},
		{[]int{2, 0}, []int{2, 3}},
		{[]int{-1, 0}, []int{2, 2}},
		{[]int{0}, []int{2, 2}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SubTensor(%v,%v) did not panic", c.lo, c.hi)
				}
			}()
			x.SubTensor(c.lo, c.hi)
		}()
	}
}

func TestIncIndexEnumeratesAllOffsets(t *testing.T) {
	dims := []int{3, 2, 4}
	x := NewDense(dims...)
	idx := make([]int, 3)
	for off := 0; off < x.Elems(); off++ {
		if got := x.Offset(idx...); got != off {
			t.Fatalf("incIndex order broken at off=%d idx=%v got=%d", off, idx, got)
		}
		incIndex(idx, dims)
	}
}

// Property: Offset is a bijection [0, I) <-> multi-index space.
func TestOffsetBijectionQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(3)
		dims := make([]int, n)
		for i := range dims {
			dims[i] = 1 + rng.Intn(4)
		}
		x := NewDense(dims...)
		seen := make(map[int]bool)
		idx := make([]int, n)
		for off := 0; off < x.Elems(); off++ {
			o := x.Offset(idx...)
			if seen[o] {
				return false
			}
			seen[o] = true
			incIndex(idx, dims)
		}
		return len(seen) == x.Elems()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxAbsDiff(t *testing.T) {
	x := NewDense(2, 2)
	y := NewDense(2, 2)
	y.Set(-3, 1, 1)
	if got := x.MaxAbsDiff(y); got != 3 {
		t.Fatalf("MaxAbsDiff = %v, want 3", got)
	}
}

func TestEqualApproxShapeMismatch(t *testing.T) {
	if NewDense(2, 2).EqualApprox(NewDense(4), 1) {
		t.Fatal("EqualApprox should be false for different shapes")
	}
}
