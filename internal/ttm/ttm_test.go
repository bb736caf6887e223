package ttm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
	"repro/internal/tensor"
)

// Oracle: mode-k TTM via unfolding: Y_(k) = U^T X_(k).
func viaUnfold(x *tensor.Dense, u *tensor.Matrix, mode int) *tensor.Dense {
	yk := linalg.MatMulTransA(u, tensor.Unfold(x, mode))
	outDims := x.Dims()
	outDims[mode] = u.Cols()
	return tensor.Fold(yk, mode, outDims)
}

func TestTTMMatchesUnfoldOracle(t *testing.T) {
	dims := []int{4, 3, 5}
	x := tensor.RandomDense(1, dims...)
	for mode := 0; mode < 3; mode++ {
		u := tensor.RandomMatrix(int64(mode+2), dims[mode], 2)
		got := TTM(x, u, mode)
		want := viaUnfold(x, u, mode)
		if !got.EqualApprox(want, 1e-10) {
			t.Fatalf("mode %d: TTM mismatch %v", mode, got.MaxAbsDiff(want))
		}
	}
}

func TestTTMShape(t *testing.T) {
	x := tensor.RandomDense(3, 4, 5, 6)
	u := tensor.RandomMatrix(4, 5, 2)
	y := TTM(x, u, 1)
	d := y.Dims()
	if d[0] != 4 || d[1] != 2 || d[2] != 6 {
		t.Fatalf("shape %v", d)
	}
}

func TestTTMIdentityIsNoop(t *testing.T) {
	x := tensor.RandomDense(5, 3, 4)
	id := linalg.Identity(3)
	if !TTM(x, id, 0).EqualApprox(x, 1e-12) {
		t.Fatal("TTM with identity changed the tensor")
	}
}

// TTMs in different modes commute.
func TestTTMCommutesQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nd := 2 + rng.Intn(2)
		dims := make([]int, nd)
		for i := range dims {
			dims[i] = 2 + rng.Intn(3)
		}
		x := tensor.RandomDense(seed, dims...)
		k1 := rng.Intn(nd)
		k2 := (k1 + 1) % nd
		u1 := tensor.RandomMatrix(seed+1, dims[k1], 1+rng.Intn(3))
		u2 := tensor.RandomMatrix(seed+2, dims[k2], 1+rng.Intn(3))
		a := TTM(TTM(x, u1, k1), u2, k2)
		b := TTM(TTM(x, u2, k2), u1, k1)
		return a.EqualApprox(b, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestChain(t *testing.T) {
	dims := []int{3, 4, 5}
	x := tensor.RandomDense(7, dims...)
	us := []*tensor.Matrix{
		tensor.RandomMatrix(8, 3, 2),
		tensor.RandomMatrix(9, 4, 2),
		tensor.RandomMatrix(10, 5, 3),
	}
	full := chain(x, us, -1, 0, NewWorkspace())
	d := full.Dims()
	if d[0] != 2 || d[1] != 2 || d[2] != 3 {
		t.Fatalf("chain dims %v", d)
	}
	// Equivalent to sequential TTMs.
	want := TTM(TTM(TTM(x, us[0], 0), us[1], 1), us[2], 2)
	if !full.EqualApprox(want, 1e-10) {
		t.Fatal("Chain != sequential TTMs")
	}
	// Skip mode 1: dimension 1 untouched.
	part := chain(x, []*tensor.Matrix{us[0], nil, us[2]}, 1, 0, NewWorkspace())
	if part.Dim(1) != 4 {
		t.Fatal("skip mode was contracted")
	}
}

func TestFlops(t *testing.T) {
	x := tensor.NewDense(3, 4)
	if got := Flops(x, 5); got != 2*12*5 {
		t.Fatalf("Flops = %d", got)
	}
}

func TestPanics(t *testing.T) {
	x := tensor.RandomDense(1, 3, 4)
	for _, f := range []func(){
		func() { TTM(x, tensor.NewMatrix(3, 2), 2) },
		func() { TTM(x, tensor.NewMatrix(5, 2), 0) },
		func() {
			us := []*tensor.Matrix{tensor.NewMatrix(3, 2), tensor.NewMatrix(4, 2)}
			_ = TreeInto([]*tensor.Dense{tensor.NewDense(3, 2)}, x, us, 1, NewWorkspace(), nil) // panics first
		},
		func() {
			us := []*tensor.Matrix{tensor.NewMatrix(3, 2), tensor.NewMatrix(4, 2)}
			ys := []*tensor.Dense{tensor.NewDense(3, 2), tensor.NewDense(2, 4)}
			_ = TreeInto(ys, x, us, 1, NewWorkspace(), func(k int, _ *tensor.Dense) error { // panics first
				us[k] = tensor.NewMatrix(x.Dim(k), 3) // a leaf may not change the shape
				return nil
			})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}
