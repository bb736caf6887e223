package ttm

import (
	"errors"
	"math"
	"testing"

	"repro/internal/obs"
	"repro/internal/tensor"
)

// treeShapes cover orders 1-5 with unequal extents and ranks; orders 3
// and 5 split their ranges unevenly, and order 5 nests two partials.
// The last two plan away from the balanced tree: 16^3 at ranks
// (8, 2, 2) splits its root at mode 2, and the root of the last
// computes its four leaves as chains.
var treeShapes = []struct{ dims, ranks []int }{
	{[]int{7}, []int{3}},
	{[]int{6, 5}, []int{2, 5}},
	{[]int{5, 7, 4}, []int{1, 3, 4}},
	{[]int{4, 5, 3, 6}, []int{2, 2, 3, 1}},
	{[]int{3, 4, 2, 5, 3}, []int{2, 1, 2, 3, 3}},
	{[]int{16, 16, 16}, []int{8, 2, 2}},
	{[]int{8, 13, 2, 23}, []int{5, 1, 1, 23}},
}

// relDiff returns max |got - want| / max |want|.
func relDiff(got, want *tensor.Dense) float64 {
	scale := 0.0
	for _, v := range want.Data() {
		scale = math.Max(scale, math.Abs(v))
	}
	return got.MaxAbsDiff(want) / scale
}

// TestTreeMatchesChains: every leaf of the walk holds the projection
// the per-mode HOOI loop computed — the chain with skip k over the
// matrices current at that point, i.e. the leaves' replacements for
// the modes below k and the originals above — to rounding, and the
// walk visits the modes in ascending order. 1 and 3 workers give
// bitwise identical projections.
func TestTreeMatchesChains(t *testing.T) {
	for si, tc := range treeShapes {
		x := tensor.RandomDense(int64(900+si), tc.dims...)
		N := len(tc.dims)
		var ref []*tensor.Dense
		ws := NewWorkspace()
		for _, workers := range []int{1, 3} {
			us := make([]*tensor.Matrix, N)
			for k := range us {
				us[k] = tensor.RandomMatrix(int64(910+10*si+k), tc.dims[k], tc.ranks[k])
			}
			ys := ProjectionViews(tc.dims, tc.ranks)
			got := make([]*tensor.Dense, 0, N)
			err := TreeInto(ys, x, us, workers, NewWorkspace(), func(k int, y *tensor.Dense) error {
				if k != len(got) {
					t.Fatalf("%v: visited mode %d after %d leaves", tc.dims, k, len(got))
				}
				want := chain(x, us, k, 1, ws)
				if e := relDiff(y, want); !(e <= 1e-12) {
					t.Fatalf("%v mode %d: tree vs chain relative diff %g", tc.dims, k, e)
				}
				got = append(got, y.Clone())
				us[k] = tensor.RandomMatrix(int64(960+10*si+k), tc.dims[k], tc.ranks[k])
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != N {
				t.Fatalf("%v: %d leaves, want %d", tc.dims, len(got), N)
			}
			if ref == nil {
				ref = got
				continue
			}
			for k := range got {
				for i, v := range got[k].Data() {
					if v != ref[k].Data()[i] { //repro:bitwise worker-count independence
						t.Fatalf("%v mode %d: 3 workers differ from 1 at element %d", tc.dims, k, i)
					}
				}
			}
		}
	}
}

// TestTreeLeafError: an error from a leaf stops the walk before any
// later leaf and comes back unchanged; the next walk on the same
// workspace starts from an empty partial stack.
func TestTreeLeafError(t *testing.T) {
	tc := treeShapes[4]
	x := tensor.RandomDense(17, tc.dims...)
	us := make([]*tensor.Matrix, len(tc.dims))
	for k := range us {
		us[k] = tensor.RandomMatrix(int64(30+k), tc.dims[k], tc.ranks[k])
	}
	ys := ProjectionViews(tc.dims, tc.ranks)
	ws := NewWorkspace()
	stop := errors.New("stop")
	visited := 0
	err := TreeInto(ys, x, us, 1, ws, func(k int, y *tensor.Dense) error {
		visited++
		if k == 3 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) || visited != 4 {
		t.Fatalf("err %v after %d leaves, want %v after 4", err, visited, stop)
	}
	visited = 0
	if err := TreeInto(ys, x, us, 1, ws, func(int, *tensor.Dense) error { visited++; return nil }); err != nil || visited != len(tc.dims) {
		t.Fatalf("second walk: err %v after %d leaves", err, visited)
	}
	if ws.sp != 0 {
		t.Fatalf("partial stack depth %d after the walk", ws.sp)
	}
}

// TestTreePlanCost: the walk's measured flops are twice the plan's
// multiply-adds and never exceed the per-mode chains'. Uniform ranks
// keep the balanced tree (16^4, ranks 4: 11|X| multiply-adds against
// the chains' 21|X|, the ratio of the tucker-hooi workload's 32^4,
// ranks 8). Skewed ranks move the split: at 32^3, ranks (16, 4, 4),
// the balanced split at mode 1 would contract mode 0, the one that
// shrinks least, straight from X (24.5|X|); the plan splits at mode 2
// (12.5|X|, the chains 16.5|X|). At 16^4, ranks (1, 1, 16, 16), two
// modes do not shrink at all and the plan peels modes 0 and 1 off one
// at a time (6.1875|X|, the chains 8.25|X|). The last shape's root
// computes every leaf as a chain, so it costs the chains exactly.
func TestTreePlanCost(t *testing.T) {
	cases := []struct {
		dims, ranks []int
		tree, loop  int64 // flops
	}{
		{[]int{16, 16, 16, 16}, []int{4, 4, 4, 4}, 22 << 16, 42 << 16},
		{[]int{32, 32, 32}, []int{16, 4, 4}, 25 << 15, 33 << 15},
		{[]int{16, 16, 16, 16}, []int{1, 1, 16, 16}, 99 << 13, 33 << 15},
		{[]int{8, 13, 2, 23}, []int{5, 1, 1, 23}, 2 * 78499, 2 * 78499},
	}
	for _, tc := range cases {
		N := len(tc.dims)
		x := tensor.RandomDense(5, tc.dims...)
		us := make([]*tensor.Matrix, N)
		for k := range us {
			us[k] = tensor.RandomMatrix(int64(40+k), tc.dims[k], tc.ranks[k])
		}
		ws := NewWorkspace()
		col := obs.New(0)
		obs.Enable(col)
		err := TreeInto(ProjectionViews(tc.dims, tc.ranks), x, us, 1, ws, func(int, *tensor.Dense) error { return nil })
		obs.Disable()
		if err != nil {
			t.Fatal(err)
		}
		tree := col.Totals().Flops
		col = obs.New(0)
		obs.Enable(col)
		for k := range tc.dims {
			chain(x, us, k, 1, NewWorkspace())
		}
		obs.Disable()
		loop := col.Totals().Flops
		if planned := 2 * int64(ws.cost[N-1]); tree != planned || tree != tc.tree || loop != tc.loop {
			t.Errorf("%v ranks %v: tree %d flops (planned %d, want %d), chains %d (want %d)", tc.dims, tc.ranks, tree, planned, tc.tree, loop, tc.loop)
		}
	}
}
