package dist

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/grid"
	"repro/internal/tensor"
)

func TestStationaryBlocksPartitionTensor(t *testing.T) {
	dims := []int{6, 5, 4}
	d := mustStationary(t, dims, 3, []int{3, 2, 2})
	g := d.G
	covered := make(map[int]int)
	x := tensor.RandomDense(1, dims...)
	for r := 0; r < g.P(); r++ {
		lo, hi := d.BlockRange(g.Coords(r))
		idx := make([]int, 3)
		copy(idx, lo)
		for {
			covered[x.Offset(idx...)]++
			done := true
			for k := 0; k < 3; k++ {
				idx[k]++
				if idx[k] < hi[k] {
					done = false
					break
				}
				idx[k] = lo[k]
			}
			if done {
				break
			}
		}
	}
	if len(covered) != x.Elems() {
		t.Fatalf("blocks cover %d of %d elements", len(covered), x.Elems())
	}
	for off, c := range covered {
		if c != 1 {
			t.Fatalf("element %d covered %d times", off, c)
		}
	}
}

func TestStationaryLocalTensorValues(t *testing.T) {
	dims := []int{4, 4}
	d := mustStationary(t, dims, 2, []int{2, 2})
	x := tensor.RandomDense(7, dims...)
	coords := []int{1, 0}
	local := d.LocalTensor(coords, x)
	lo, hi := d.BlockRange(coords)
	if local.Dim(0) != hi[0]-lo[0] || local.Dim(1) != hi[1]-lo[1] {
		t.Fatal("local shape mismatch")
	}
	if local.At(0, 0) != x.At(lo[0], lo[1]) {
		t.Fatal("local content mismatch")
	}
}

func TestStationaryFactorShardsPartitionBlockRow(t *testing.T) {
	dims := []int{6, 4}
	R := 3
	d := mustStationary(t, dims, R, []int{2, 2})
	g := d.G
	a := tensor.RandomMatrix(5, 6, R)
	k := 0
	// For each hyperslice coordinate, the shards of its members must
	// concatenate to the flattened block row.
	for ck := 0; ck < g.Extent(k); ck++ {
		rlo, rhi := d.FactorRowRange(k, ck)
		want := a.RowBlock(rlo, rhi).Data()
		var got []float64
		// Enumerate hyperslice members in sorted rank order.
		coords := []int{ck, 0}
		slice := d.HyperSlice(k, 0, coords)
		for _, r := range slice {
			p0, c := d.Coords(r)
			got = append(got, d.FactorShard(k, p0, c, a)...)
		}
		if len(got) != len(want) {
			t.Fatalf("ck=%d: concatenated %d words, want %d", ck, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("ck=%d: shard mismatch at %d", ck, i)
			}
		}
	}
}

func TestStationaryMaxNnz(t *testing.T) {
	dims := []int{7, 5}
	d := mustStationary(t, dims, 3, []int{2, 2})
	// ceil(7/2)*ceil(5/2) = 4*3 = 12.
	if got := d.MaxTensorNnz(); got != 12 {
		t.Fatalf("MaxTensorNnz = %d", got)
	}
	// Mode 0: ceil(ceil(7/2)*3 / (4/2)) = ceil(12/2) = 6.
	if got := d.MaxFactorNnz(0); got != 6 {
		t.Fatalf("MaxFactorNnz(0) = %d", got)
	}
	// Eq. (14): (2-1)*6 + (2-1)*ceil(ceil(5/2)*3 / 2) = 6 + 5.
	if got := d.MaxSends(); got != 11 {
		t.Fatalf("MaxSends = %d", got)
	}
}

// TestNewStationaryErrors: the constructor returns an error, and never
// panics, for a shape of the wrong length, an extent below 1 or above
// its dimension, or R < 1; an extent error names the whole shape.
// CheckRowShards rejects a dimension below P.
func TestNewStationaryErrors(t *testing.T) {
	for _, c := range []struct {
		dims  []int
		R     int
		shape []int
	}{
		{[]int{4, 4}, 2, []int{2}},
		{[]int{4, 4}, 2, []int{2, 2, 1}},
		{[]int{4, 4}, 0, []int{2, 2}},
		{[]int{1, 4}, 2, []int{2, 2}},
		{[]int{4, 4}, 2, []int{0, 2}},
		{[]int{4, 4}, 2, []int{2, -1}},
	} {
		_, err := NewStationary(c.dims, c.R, c.shape)
		if err == nil {
			t.Errorf("%v R %d on %v: no error", c.dims, c.R, c.shape)
		} else if c.R > 0 && !strings.Contains(err.Error(), fmt.Sprint(c.shape)) {
			t.Errorf("%v R %d on %v: error %q does not name the shape", c.dims, c.R, c.shape, err)
		}
	}
	if err := mustStationary(t, []int{4, 3}, 2, []int{2, 2}).CheckRowShards(); err == nil {
		t.Error("dimension 3 below P = 4: no row-shard error")
	}
	if err := mustStationary(t, []int{4, 4}, 2, []int{2, 2}).CheckRowShards(); err != nil {
		t.Error(err)
	}
}

func TestGeneralTensorShardsPartitionBlock(t *testing.T) {
	dims := []int{4, 6}
	d := mustGeneral(t, dims, 3, []int{3, 2, 2}) // P0=3, P1=2, P2=2
	x := tensor.RandomDense(11, dims...)
	// For each (p1, p2) block, the shards of its P0-fiber's members,
	// in fiber order, must reassemble the block's flattening.
	for p1 := 0; p1 < 2; p1++ {
		for p2 := 0; p2 < 2; p2++ {
			coords := []int{p1, p2}
			want := d.LocalTensor(coords, x).Data()
			var got []float64
			for idx, r := range d.DepthFiber(coords) {
				p0, c := d.Coords(r)
				if p0 != idx || c[0] != p1 || c[1] != p2 {
					t.Fatalf("block (%d,%d): fiber member %d is rank %d at (%d, %v)", p1, p2, idx, r, p0, c)
				}
				lo, hi := d.TensorShardRange(c, p0)
				got = append(got, want[lo:hi]...)
			}
			if len(got) != len(want) {
				t.Fatalf("block (%d,%d): got %d words, want %d", p1, p2, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("block (%d,%d): mismatch at %d", p1, p2, i)
				}
			}
		}
	}
}

func TestGeneralFactorShardsPartitionBlock(t *testing.T) {
	dims := []int{6, 4}
	R := 4
	d := mustGeneral(t, dims, R, []int{2, 3, 2})
	a := tensor.RandomMatrix(13, 6, R)
	k := 0
	for p0 := 0; p0 < 2; p0++ {
		for pk := 0; pk < 3; pk++ {
			coords := []int{pk, 0}
			rlo, rhi := d.FactorRowRange(k, pk)
			clo, chi := d.RankRange(p0)
			want := a.Block(rlo, rhi, clo, chi).Data()
			var got []float64
			for _, r := range d.HyperSlice(k, p0, coords) {
				q0, c := d.Coords(r)
				got = append(got, d.FactorShard(k, q0, c, a)...)
			}
			if len(got) != len(want) {
				t.Fatalf("(p0=%d,pk=%d): got %d, want %d", p0, pk, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("(p0=%d,pk=%d): mismatch at %d", p0, pk, i)
				}
			}
		}
	}
}

func TestGeneralRankRangesPartitionR(t *testing.T) {
	d := mustGeneral(t, []int{4, 4}, 7, []int{3, 1, 1})
	pos := 0
	for p0 := 0; p0 < 3; p0++ {
		lo, hi := d.RankRange(p0)
		if lo != pos {
			t.Fatalf("rank ranges not contiguous at p0=%d", p0)
		}
		pos = hi
	}
	if pos != 7 {
		t.Fatal("rank ranges do not cover R")
	}
	if d.P0 != 3 || d.P() != 3 {
		t.Fatalf("P0 = %d, P = %d; want 3, 3", d.P0, d.P())
	}
}

func TestGeneralMaxNnz(t *testing.T) {
	dims := []int{6, 6}
	d := mustGeneral(t, dims, 4, []int{2, 2, 3})
	// Block = ceil(6/2)*ceil(6/3) = 3*2 = 6; over P0=2 -> 3.
	if got := d.MaxTensorNnz(); got != 3 {
		t.Fatalf("MaxTensorNnz = %d", got)
	}
	// Mode 0: rows=3, cols=ceil(4/2)=2, q = 12/(2*2) = 3 -> ceil(6/3)=2.
	if got := d.MaxFactorNnz(0); got != 2 {
		t.Fatalf("MaxFactorNnz(0) = %d", got)
	}
	// Eq. (18): (2-1)*3 + (3-1)*2 + (2-1)*ceil(2*2 / 2) = 3 + 4 + 2.
	if got := d.MaxSends(); got != 9 {
		t.Fatalf("MaxSends = %d", got)
	}
}

// TestGeneralRanksMatchGrid: a layout numbers its processors as the
// (N+1)-way grid of its shape does, rank split first, so Coords, the
// hyperslices, the mode fibers and the P0-fibers are that grid's
// coordinates and slices; at P0 = 1 they are the N-way grid's.
func TestGeneralRanksMatchGrid(t *testing.T) {
	dims := []int{6, 5, 4}
	for _, shape := range [][]int{{1, 3, 1, 2}, {2, 2, 1, 2}, {3, 1, 5, 1}, {4, 2, 1, 1}} {
		d := mustGeneral(t, dims, 4, shape)
		g := grid.New(shape...)
		if d.P() != g.P() {
			t.Fatalf("%v: P = %d, grid's %d", shape, d.P(), g.P())
		}
		for r := 0; r < d.P(); r++ {
			p0, coords := d.Coords(r)
			gc := g.Coords(r)
			if fmt.Sprint(append([]int{p0}, coords...)) != fmt.Sprint(gc) {
				t.Fatalf("%v: rank %d at (%d, %v), grid's %v", shape, r, p0, coords, gc)
			}
			for k := range dims {
				var fixed, gridFixed []int // mode k's fiber: every mode fixed but k
				for j := range dims {
					if j != k {
						fixed, gridFixed = append(fixed, j), append(gridFixed, j+1)
					}
				}
				for _, c := range []struct{ got, want []int }{
					{d.HyperSlice(k, p0, coords), g.Slice([]int{0, k + 1}, gc)},
					{d.Slice(p0, fixed, coords), g.Slice(append([]int{0}, gridFixed...), gc)},
					{d.DepthFiber(coords), g.Slice([]int{1, 2, 3}, gc)},
				} {
					if fmt.Sprint(c.got) != fmt.Sprint(c.want) {
						t.Fatalf("%v rank %d mode %d: group %v, grid's %v", shape, r, k, c.got, c.want)
					}
				}
			}
		}
		if s, err := NewStationary(dims, 4, shape[1:]); err != nil || shape[0] == 1 && s.MaxSends() != d.MaxSends() {
			t.Fatalf("%v: stationary layout %v sends %d, general %d", shape, err, s.MaxSends(), d.MaxSends())
		}
	}
}

// TestNewGeneralErrors: the constructor returns an error, and never
// panics, for a shape of the wrong length, P0 outside [1, R], a mode
// extent below 1 or above its dimension, or R < 1; a grid error names
// the whole shape, P0 included.
func TestNewGeneralErrors(t *testing.T) {
	for _, c := range []struct {
		dims  []int
		R     int
		shape []int
	}{
		{[]int{4, 4}, 2, []int{2, 2}},
		{[]int{4, 4}, 2, []int{3, 2, 2}}, // P0 > R
		{[]int{4, 1}, 2, []int{1, 2, 2}},
		{[]int{4, 4}, 0, []int{1, 2, 2}},
		{[]int{4, 4}, 2, []int{0, 2, 2}},
		{[]int{4, 4}, 2, []int{1, 0, 2}},
		{[]int{4, 4}, 2, []int{1, 2, -2}},
	} {
		_, err := NewGeneral(c.dims, c.R, c.shape)
		if err == nil {
			t.Errorf("%v R %d on %v: no error", c.dims, c.R, c.shape)
		} else if c.R > 0 && !strings.Contains(err.Error(), fmt.Sprint(c.shape)) {
			t.Errorf("%v R %d on %v: error %q does not name the shape", c.dims, c.R, c.shape, err)
		}
	}
}

func TestIndexIn(t *testing.T) {
	if IndexIn([]int{5, 9, 11}, 9) != 1 {
		t.Fatal("IndexIn")
	}
	defer func() {
		if recover() == nil {
			t.Error("rank outside the group: no panic")
		}
	}()
	IndexIn([]int{1, 2}, 3)
}

func mustStationary(t *testing.T, dims []int, R int, shape []int) Layout {
	t.Helper()
	d, err := NewStationary(dims, R, shape)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func mustGeneral(t *testing.T, dims []int, R int, shape []int) Layout {
	t.Helper()
	d, err := NewGeneral(dims, R, shape)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// Property: for random grids, every stationary factor shard has size
// within the Eq. (33)-style bound, and shard sizes sum to the block.
func TestStationaryShardSizesQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		N := 2 + rng.Intn(2)
		dims := make([]int, N)
		shape := make([]int, N)
		for i := range dims {
			shape[i] = 1 + rng.Intn(3)
			dims[i] = shape[i] + rng.Intn(5)
		}
		R := 1 + rng.Intn(4)
		d, err := NewStationary(dims, R, shape)
		if err != nil {
			return false
		}
		for k := 0; k < N; k++ {
			bound := d.MaxFactorNnz(k)
			for ck := 0; ck < shape[k]; ck++ {
				coords := make([]int, N)
				coords[k] = ck
				slice := d.HyperSlice(k, 0, coords)
				total := 0
				for idx := range slice {
					lo, hi := d.ShardRange(k, 0, ck, len(slice), idx)
					if int64(hi-lo) > bound {
						return false
					}
					total += hi - lo
				}
				rlo, rhi := d.FactorRowRange(k, ck)
				if total != (rhi-rlo)*R {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
