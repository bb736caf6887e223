package ttm

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/obs"
	"repro/internal/tensor"
)

// truncationCost returns the flops of a truncation pass that visits
// the modes in order with a Gram-forming factor, under truncationOrder's
// model: (I_k+1)·S Gram and 2·R_k·S contraction flops per mode on the
// S entries it sees, the last contraction included.
func truncationCost(dims, ranks, order []int) int64 {
	size := int64(1)
	for _, d := range dims {
		size *= int64(d)
	}
	var c int64
	for _, k := range order {
		c += int64(dims[k]+1+2*ranks[k]) * size
		size = size / int64(dims[k]) * int64(ranks[k])
	}
	return c
}

// permutations calls f with every ordering of 0..n-1.
func permutations(n int, f func([]int)) {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			f(p)
			return
		}
		for j := i; j < n; j++ {
			p[i], p[j] = p[j], p[i]
			rec(i + 1)
			p[i], p[j] = p[j], p[i]
		}
	}
	rec(0)
}

// TestTruncationOrderIsOptimal: on random shapes of orders 2-5, rank =
// extent among them, the planned order costs exactly the minimum over
// all N! orders, and a uniform shape plans N-1, ..., 0.
func TestTruncationOrderIsOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 3000; trial++ {
		N := 2 + rng.Intn(4)
		dims, ranks := make([]int, N), make([]int, N)
		for k := range dims {
			dims[k] = 1 + rng.Intn(40)
			ranks[k] = 1 + rng.Intn(dims[k])
			if rng.Intn(4) == 0 {
				ranks[k] = dims[k]
			}
		}
		order := truncationOrder(make([]int, N), dims, ranks)
		best := int64(-1)
		permutations(N, func(p []int) {
			if c := truncationCost(dims, ranks, p); best < 0 || c < best {
				best = c
			}
		})
		if got := truncationCost(dims, ranks, order); got != best {
			t.Fatalf("%v ranks %v: planned order %v costs %d, the best order %d", dims, ranks, order, got, best)
		}
	}
	for N := 1; N <= 5; N++ {
		dims, ranks := make([]int, N), make([]int, N)
		for k := range dims {
			dims[k], ranks[k] = 32, 8
		}
		order := truncationOrder(make([]int, N), dims, ranks)
		for i, k := range order {
			if k != N-1-i {
				t.Fatalf("uniform order %d: planned %v, want descending", N, order)
			}
		}
	}
}

// gramMergeFlops returns the flops of GramInto's bucket merge for mode
// k of a tensor with extents dims: 2·(buckets-1)·I_k^2.
func gramMergeFlops(dims []int, k int) int64 {
	L, Rt := 1, 1
	for j := range dims {
		if j < k {
			L *= dims[j]
		} else if j > k {
			Rt *= dims[j]
		}
	}
	units := Rt
	if Rt == 1 {
		units = L
	}
	return 2 * int64(min(gramChunks, units)-1) * int64(dims[k]*dims[k])
}

// TestTruncateMatchesScalar: TruncateInto visits the modes in the
// planned order; each y it hands out is x contracted on the modes
// visited before, with the matrices returned for them, and the core x
// contracted on every mode — within 1e-12 relative of the scalar
// TTMs. 1 and 3 workers agree bitwise. With a Gram-forming factor the
// pass records exactly the planned flops plus the Gram bucket merges,
// and a nil core drops the last contraction's.
func TestTruncateMatchesScalar(t *testing.T) {
	for si, tc := range treeShapes {
		x := tensor.RandomDense(int64(500+si), tc.dims...)
		N := len(tc.dims)
		want := make([]*tensor.Matrix, N)
		for k := range want {
			want[k] = tensor.RandomMatrix(int64(510+10*si+k), tc.dims[k], tc.ranks[k])
		}
		order := truncationOrder(make([]int, N), tc.dims, tc.ranks)
		var refYs []*tensor.Dense
		var refCore *tensor.Dense
		for _, workers := range []int{1, 3} {
			us := make([]*tensor.Matrix, N)
			core := tensor.NewDense(tc.ranks...)
			var ys []*tensor.Dense
			ws := NewWorkspace()
			err := TruncateInto(core, x, tc.ranks, us, workers, ws, func(k int, y *tensor.Dense) (*tensor.Matrix, error) {
				i := len(ys)
				if k != order[i] {
					t.Fatalf("%v: visited mode %d at step %d, planned %v", tc.dims, k, i, order)
				}
				scalar := x
				for _, j := range order[:i] {
					scalar = TTMScalar(scalar, want[j], j)
				}
				if e := relDiff(y, scalar); !(e <= 1e-12) {
					t.Fatalf("%v step %d: y vs scalar relative diff %g", tc.dims, i, e)
				}
				ys = append(ys, y.Clone())
				return want[k], nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for k := range us {
				if us[k] != want[k] {
					t.Fatalf("%v: us[%d] is not the returned matrix", tc.dims, k)
				}
			}
			if e := relDiff(core, ChainScalar(x, want, -1)); !(e <= 1e-12) {
				t.Fatalf("%v: core vs ChainScalar relative diff %g", tc.dims, e)
			}
			if refYs == nil {
				refYs, refCore = ys, core
				continue
			}
			for i := range ys {
				checkBitwise(t, "truncation y", ys[i], refYs[i])
			}
			checkBitwise(t, "truncation core", core, refCore)
		}

		// Measured flops against the plan, with and without the core.
		grams := make([]*tensor.Matrix, N)
		for k := range grams {
			grams[k] = tensor.NewMatrix(tc.dims[k], tc.dims[k])
		}
		for _, withCore := range []bool{true, false} {
			ws := NewWorkspace()
			var core *tensor.Dense
			if withCore {
				core = tensor.NewDense(tc.ranks...)
			}
			var merges int64
			col := obs.New(0)
			obs.Enable(col)
			err := TruncateInto(core, x, tc.ranks, make([]*tensor.Matrix, N), 1, ws, func(k int, y *tensor.Dense) (*tensor.Matrix, error) {
				GramInto(grams[k], y, k, 1, ws)
				merges += gramMergeFlops(y.Dims(), k)
				return want[k], nil
			})
			obs.Disable()
			if err != nil {
				t.Fatal(err)
			}
			planned := truncationCost(tc.dims, tc.ranks, order) + merges
			if !withCore {
				// The last contraction maps I_last·prod_{k != last} R_k
				// entries to the core, 2·R_last flops each.
				planned -= 2 * int64(elemsOf(tc.ranks)*tc.dims[order[N-1]])
			}
			if got := col.Totals().Flops; got != planned {
				t.Errorf("%v ranks %v core %v: %d flops, planned %d", tc.dims, tc.ranks, withCore, got, planned)
			}
		}
	}
}

func elemsOf(dims []int) int {
	n := 1
	for _, d := range dims {
		n *= d
	}
	return n
}

// TestTruncateFactorError: an error from factor stops the pass before
// any later mode and comes back unchanged, and the workspace serves a
// full pass afterwards.
func TestTruncateFactorError(t *testing.T) {
	tc := treeShapes[4]
	N := len(tc.dims)
	x := tensor.RandomDense(19, tc.dims...)
	us := make([]*tensor.Matrix, N)
	stop := errors.New("stop")
	ws := NewWorkspace()
	visited := []int{}
	err := TruncateInto(nil, x, tc.ranks, us, 1, ws, func(k int, y *tensor.Dense) (*tensor.Matrix, error) {
		visited = append(visited, k)
		if len(visited) == 2 {
			return nil, stop
		}
		return tensor.RandomMatrix(int64(k), tc.dims[k], tc.ranks[k]), nil
	})
	if !errors.Is(err, stop) || len(visited) != 2 {
		t.Fatalf("err %v after modes %v, want %v after 2", err, visited, stop)
	}
	visited = visited[:0]
	core := tensor.NewDense(tc.ranks...)
	err = TruncateInto(core, x, tc.ranks, us, 1, ws, func(k int, y *tensor.Dense) (*tensor.Matrix, error) {
		visited = append(visited, k)
		return tensor.RandomMatrix(int64(k), tc.dims[k], tc.ranks[k]), nil
	})
	slices.Sort(visited)
	if err != nil || !slices.Equal(visited, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("second pass: err %v, visited %v", err, visited)
	}
	if e := relDiff(core, ChainScalar(x, us, -1)); !(e <= 1e-12) {
		t.Fatalf("second pass core vs ChainScalar relative diff %g", e)
	}
}
