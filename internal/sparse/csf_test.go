package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/tensor"
)

// maxAbsDiff over two matrices, for tolerance comparisons.
func matDiff(a, b *tensor.Matrix) float64 { return a.MaxAbsDiff(b) }

// TestCSFStructure: FromCOO sorts, deduplicates, and round-trips.
func TestCSFStructure(t *testing.T) {
	c := NewCOO(3, 4, 5)
	c.Append(1.0, 2, 1, 3)
	c.Append(2.0, 0, 0, 0)
	c.Append(3.0, 2, 1, 3) // duplicate of the first: summed to 4
	c.Append(5.0, 2, 1, 4) // same (i,j) fiber, new leaf
	c.Append(7.0, 0, 3, 0)
	for root := 0; root < 3; root++ {
		f := FromCOO(c, root)
		if f.Root() != root || f.Order() != 3 {
			t.Fatalf("root %d: got root %d order %d", root, f.Root(), f.Order())
		}
		if f.NNZ() != 4 {
			t.Fatalf("root %d: nnz %d, want 4 after dedup", root, f.NNZ())
		}
		if d := matDense(f.ToCOO()).MaxAbsDiff(matDense(c)); d != 0 { //repro:bitwise dedup must sum exactly
			t.Fatalf("root %d: round-trip differs by %g", root, d)
		}
	}
	f := FromCOO(c, 0)
	if f.Fibers() != 2 { // root indices 0 and 2
		t.Fatalf("fibers %d, want 2", f.Fibers())
	}
	if f.Nodes(2) != f.NNZ() {
		t.Fatalf("leaf nodes %d != nnz %d", f.Nodes(2), f.NNZ())
	}
}

// matDense flattens a COO into a dense tensor viewed as one long
// column so MaxAbsDiff can compare them.
func matDense(c *COO) *tensor.Matrix {
	d := c.ToDense()
	return tensor.NewMatrixFromData(d.Data(), len(d.Data()), 1)
}

// TestCSFMatchesCOOAndDense: property test over orders 3-5, every
// output mode and every root mode, against both the COO kernel and
// the dense KRP-splitting kernel on the materialized tensor.
func TestCSFMatchesCOOAndDense(t *testing.T) {
	const R = 5
	shapes := [][]int{
		{6, 7, 8},
		{5, 4, 3, 6},
		{3, 4, 2, 3, 4},
	}
	for _, dims := range shapes {
		cells := 1
		for _, d := range dims {
			cells *= d
		}
		c := Random(11, cells/3, dims...)
		fs := tensor.RandomFactors(13, dims, R)
		x := c.ToDense()
		for n := range dims {
			want := MTTKRP(c, fs, n)
			dense := kernel.Fast(x, fs, n)
			if d := matDiff(want, dense); d > 1e-10 {
				t.Fatalf("dims %v mode %d: coo vs dense differ by %g", dims, n, d)
			}
			for root := range dims {
				f := FromCOO(c, root)
				got := f.MTTKRPWorkers(fs, n, 1)
				if d := matDiff(got, want); d > 1e-10 {
					t.Fatalf("dims %v mode %d root %d: csf vs coo differ by %g",
						dims, n, root, d)
				}
			}
		}
	}
}

// TestCSFDuplicates: duplicate coordinates are summed, matching the
// COO kernel's accumulate-in-place semantics.
func TestCSFDuplicates(t *testing.T) {
	dims := []int{5, 6, 7, 4}
	c := Random(17, 80, dims...)
	// Re-append half of the entries with new values (duplicates).
	for i, n := 0, c.NNZ(); i < n; i += 2 {
		c.Append(float64(i)*0.25-3, entryIndex(c, i)...)
	}
	fs := tensor.RandomFactors(19, dims, 4)
	for n := range dims {
		want := MTTKRP(c, fs, n)
		got := FromCOO(c, n).MTTKRPWorkers(fs, n, 1)
		if d := matDiff(got, want); d > 1e-10 {
			t.Fatalf("mode %d: csf vs coo with duplicates differ by %g", n, d)
		}
	}
}

// TestCSFBuildPaths: the radix-sorted key path and the comparator path
// build the same tree bitwise at every root of Random tensors with
// repeated coordinates appended, and a shape too large for one key
// builds through the comparator and round-trips.
func TestCSFBuildPaths(t *testing.T) {
	for _, dims := range [][]int{{9, 8, 7}, {20, 11, 17, 9}, {1, 5, 1, 3}, {300, 2}} {
		cells := 1
		for _, d := range dims {
			cells *= d
		}
		c := Random(51, cells/3, dims...)
		rng := rand.New(rand.NewSource(52))
		for i, n := 0, c.NNZ(); i < n/2; i++ {
			c.Append(2*rng.Float64()-1, entryIndex(c, rng.Intn(n))...)
		}
		for root := range dims {
			key, cmp := fromCOO(c, root, true), fromCOO(c, root, false)
			if sortEntries(c, key.perm, true).pos != nil {
				t.Fatalf("%v root %d: the key path did not run", dims, root)
			}
			same := slices.EqualFunc(key.idx, cmp.idx, slices.Equal[[]int32]) &&
				slices.EqualFunc(key.ptr, cmp.ptr, slices.Equal[[]int32]) &&
				slices.Equal(key.rootLeaf, cmp.rootLeaf) &&
				slices.EqualFunc(key.vals, cmp.vals, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) })
			if !same {
				t.Fatalf("%v root %d: the key and comparator paths build different trees", dims, root)
			}
		}
	}
	big := NewCOO(math.MaxInt32, 3, math.MaxInt32, math.MaxInt32)
	big.Append(1, 7, 2, 0, 9)
	big.Append(2, 1<<30, 0, 5, 1)
	big.Append(4, 7, 2, 0, 9)
	big.Append(8, 7, 1, 0, 9)
	want := map[string]float64{"[7 2 0 9]": 5, "[1073741824 0 5 1]": 2, "[7 1 0 9]": 8}
	for root := 0; root < 4; root++ {
		back := FromCOO(big, root).ToCOO()
		if back.NNZ() != len(want) {
			t.Fatalf("unpackable root %d: %d entries, want %d", root, back.NNZ(), len(want))
		}
		for e, v := range back.Values() {
			idx := fmt.Sprint(entryIndex(back, e))
			if w, ok := want[idx]; !ok || v != w { //repro:bitwise small integers sum exactly
				t.Fatalf("unpackable root %d: entry %s = %v, want %v (present %v)", root, idx, v, w, ok)
			}
		}
	}
}

// TestCSFDegenerate: size-1 modes, a single entry, and an empty
// tensor all work at every root/output mode.
func TestCSFDegenerate(t *testing.T) {
	const R = 3
	shapes := [][]int{
		{1, 5, 4},
		{4, 1, 1, 3},
		{1, 1, 2},
	}
	for _, dims := range shapes {
		cells := 1
		for _, d := range dims {
			cells *= d
		}
		nnzs := []int{0, 1, cells / 2, cells}
		for _, nnz := range nnzs {
			c := Random(23, nnz, dims...)
			fs := tensor.RandomFactors(29, dims, R)
			for n := range dims {
				want := MTTKRP(c, fs, n)
				for root := range dims {
					got := FromCOO(c, root).MTTKRP(fs, n)
					if d := matDiff(got, want); d > 1e-10 {
						t.Fatalf("dims %v nnz %d mode %d root %d: differ by %g",
							dims, nnz, n, root, d)
					}
				}
			}
		}
	}
}

// TestCSFWorkerBitwise: the determinism contract — every worker count
// from 1 to 8 produces bitwise-identical output for every mode, for
// both the single-mode and the all-modes kernels. The inputs cover a
// general rank, R=16 (the kernels' register paths) and an order-2
// tensor, whose leaves hang directly under the root.
func TestCSFWorkerBitwise(t *testing.T) {
	cases := []struct {
		dims   []int
		nnz, R int
	}{
		{[]int{40, 31, 17, 9}, 6000, 6},
		{[]int{40, 31, 17, 9}, 6000, 16},
		{[]int{90, 70}, 2000, 6},
	}
	for _, tc := range cases {
		dims := tc.dims
		c := Random(31, tc.nnz, dims...)
		fs := tensor.RandomFactors(37, dims, tc.R)
		f := FromCOO(c, 0)
		base := make([]*tensor.Matrix, len(dims))
		for n := range dims {
			base[n] = f.MTTKRPWorkers(fs, n, 1)
		}
		baseAll := f.AllModes(fs, 1)
		for n := range dims {
			bd, ad := base[n].Data(), baseAll[n].Data()
			for i := range bd {
				if bd[i] != ad[i] { //repro:bitwise all-modes pass shares the single-mode arithmetic order
					t.Fatalf("%v R=%d mode %d elem %d: all-modes %x != single %x", dims, tc.R, n, i, ad[i], bd[i])
				}
			}
		}
		for w := 2; w <= 8; w++ {
			for n := range dims {
				got := f.MTTKRPWorkers(fs, n, w)
				gd, bd := got.Data(), base[n].Data()
				for i := range gd {
					if gd[i] != bd[i] { //repro:bitwise the worker-count-independence contract under test
						t.Fatalf("%v R=%d workers %d mode %d elem %d: %x != %x", dims, tc.R, w, n, i, gd[i], bd[i])
					}
				}
			}
			gotAll := f.AllModes(fs, w)
			for n := range dims {
				gd, bd := gotAll[n].Data(), base[n].Data()
				for i := range gd {
					if gd[i] != bd[i] { //repro:bitwise the worker-count-independence contract under test
						t.Fatalf("%v R=%d all-modes workers %d mode %d elem %d: %x != %x", dims, tc.R, w, n, i, gd[i], bd[i])
					}
				}
			}
		}
	}
}

// TestCSFZeroAlloc: after a warm-up call, MTTKRPInto and AllModesInto
// allocate nothing, single- and multi-worker alike. The 64x48x56 R=16
// tree's 32 all-modes buckets of 2688 words are past ReduceTree's
// serial cutoff, so its 2-worker case runs the parallel merge too; the
// 32x24x28 R=8 tree's 672-word buckets merge inline.
func TestCSFZeroAlloc(t *testing.T) {
	for _, c := range []struct {
		dims    []int
		R       int
		workers []int
	}{{[]int{32, 24, 28}, 8, []int{1, 4}}, {[]int{64, 48, 56}, 16, []int{2}}} {
		dims, R := c.dims, c.R
		coo := Random(41, 4000, dims...)
		fs := tensor.RandomFactors(43, dims, R)
		f := FromCOO(coo, 0)
		b := tensor.NewMatrix(dims[1], R)
		outs := make([]*tensor.Matrix, len(dims))
		for k := range outs {
			outs[k] = tensor.NewMatrix(dims[k], R)
		}
		for _, w := range c.workers {
			ws := NewWorkspace()
			f.MTTKRPInto(b, fs, 1, w, ws)                                                                  // warm buffers and grow the fanout pool
			if allocs := testing.AllocsPerRun(10, func() { f.MTTKRPInto(b, fs, 1, w, ws) }); allocs != 0 { //repro:bitwise exact allocation count
				t.Errorf("dims %v MTTKRPInto workers=%d: steady state allocates %v objects/op, want 0", dims, w, allocs)
			}
			f.AllModesInto(outs, fs, w, ws)
			if allocs := testing.AllocsPerRun(10, func() { f.AllModesInto(outs, fs, w, ws) }); allocs != 0 { //repro:bitwise exact allocation count
				t.Errorf("dims %v AllModesInto workers=%d: steady state allocates %v objects/op, want 0", dims, w, allocs)
			}
		}
	}
}

// TestCSFDroppedWorkspaceReleasesTree: a workspace dropped right
// after a 4-worker all-modes pass pins neither itself nor the last tree
// it walked — the fanout helpers that ran its chunks keep no reference
// to the pass — so within a bounded GC loop a finalizer set on the tree
// runs.
func TestCSFDroppedWorkspaceReleasesTree(t *testing.T) {
	dims := []int{32, 24, 28}
	c := Random(45, 4000, dims...)
	fs := tensor.RandomFactors(46, dims, 8)
	outs := make([]*tensor.Matrix, len(dims))
	for k := range outs {
		outs[k] = tensor.NewMatrix(dims[k], 8)
	}
	treeFreed := make(chan struct{})
	func() {
		f := FromCOO(c, 0)
		runtime.SetFinalizer(f, func(*CSF) { close(treeFreed) })
		f.AllModesInto(outs, fs, 4, NewWorkspace())
	}()
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-treeFreed:
			return
		default:
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("after 100 GCs the tree walked by a dropped workspace is still reachable")
}

// TestCSFSharedAcrossModes: one CSF serves every output mode without
// rebuilding, and the pooled-workspace path (ws == nil) works.
func TestCSFSharedAcrossModes(t *testing.T) {
	dims := []int{12, 9, 14}
	c := Random(47, 300, dims...)
	fs := tensor.RandomFactors(53, dims, 4)
	f := FromCOO(c, 1) // root deliberately != 0
	for n := range dims {
		want := MTTKRP(c, fs, n)
		got := f.MTTKRP(fs, n)
		if d := matDiff(got, want); d > 1e-10 {
			t.Fatalf("mode %d via shared csf: differ by %g", n, d)
		}
	}
	all := f.AllModes(fs, 0)
	for n := range dims {
		want := MTTKRP(c, fs, n)
		if d := matDiff(all[n], want); d > 1e-10 {
			t.Fatalf("all-modes mode %d: differ by %g", n, d)
		}
	}
}

// FuzzCSF draws order 2-4 COO tensors with extents 1-12 and 0-300
// entries, a quarter of them repeating an earlier coordinate, a rank
// of 1-20 and any root. It checks that ToCOO(FromCOO) is the COO with
// duplicates summed in append order, that AllModes matches the COO
// kernel to 1e-10, is bitwise the N single-mode passes and bitwise
// the same at 3 workers as at 1, and that after EnableF32Values on a
// second tree AllModes32 is bitwise the rounded float64 result.
func FuzzCSF(f *testing.F) {
	f.Add(uint8(1), uint8(11), uint8(11), uint8(0), uint8(0), uint16(120), uint8(15), uint8(0), int64(1))
	f.Add(uint8(0), uint8(4), uint8(9), uint8(0), uint8(0), uint16(60), uint8(5), uint8(1), int64(2))
	f.Add(uint8(2), uint8(5), uint8(0), uint8(6), uint8(3), uint16(300), uint8(2), uint8(3), int64(3))
	f.Add(uint8(1), uint8(0), uint8(0), uint8(0), uint8(0), uint16(0), uint8(0), uint8(2), int64(4))
	f.Fuzz(func(t *testing.T, order, d0, d1, d2, d3 uint8, nnz uint16, rank, root uint8, seed int64) {
		dims := []int{1 + int(d0)%12, 1 + int(d1)%12, 1 + int(d2)%12, 1 + int(d3)%12}[:2+int(order)%3]
		R := 1 + int(rank)%20
		rt := int(root) % len(dims)
		rng := rand.New(rand.NewSource(seed))
		c := NewCOO(dims...)
		idx := make([]int, len(dims))
		for e := 0; e < int(nnz)%301; e++ {
			if c.NNZ() > 0 && rng.Intn(4) == 0 {
				copy(idx, entryIndex(c, rng.Intn(c.NNZ())))
			} else {
				for k, d := range dims {
					idx[k] = rng.Intn(d)
				}
			}
			c.Append(2*rng.Float64()-1, idx...)
		}
		fs := tensor.RandomFactors(seed+1, dims, R)

		cs := FromCOO(c, rt)
		sums := make(map[int]float64)
		for e, val := range c.Values() {
			key := linearKey(entryIndex(c, e), dims)
			if v, ok := sums[key]; ok {
				sums[key] = v + val
			} else {
				sums[key] = val
			}
		}
		back := cs.ToCOO()
		if back.NNZ() != len(sums) {
			t.Fatalf("%v root %d: ToCOO has %d entries, want %d distinct coordinates", dims, rt, back.NNZ(), len(sums))
		}
		for e, val := range back.Values() {
			idx := entryIndex(back, e)
			key := linearKey(idx, dims)
			if v, ok := sums[key]; !ok || v != val { //repro:bitwise duplicates sum in append order, exactly
				t.Fatalf("%v root %d: ToCOO entry %v = %v, want %v (present %v)", dims, rt, idx, val, v, ok)
			}
			delete(sums, key)
		}

		all := cs.AllModes(fs, 1)
		all3 := cs.AllModes(fs, 3)
		for n := range dims {
			if d := matDiff(all[n], MTTKRP(c, fs, n)); d > 1e-10 {
				t.Fatalf("%v R=%d root %d mode %d: all-modes vs coo differ by %g", dims, R, rt, n, d)
			}
			single := cs.MTTKRPWorkers(fs, n, 1).Data()
			for i, v := range all[n].Data() {
				if v != single[i] { //repro:bitwise all-modes pass shares the single-mode arithmetic order
					t.Fatalf("%v R=%d root %d mode %d elem %d: all-modes %x != single %x", dims, R, rt, n, i, v, single[i])
				}
				if w := all3[n].Data()[i]; w != v { //repro:bitwise the worker-count-independence contract under test
					t.Fatalf("%v R=%d root %d mode %d elem %d: 3 workers %x != 1 worker %x", dims, R, rt, n, i, w, v)
				}
			}
		}

		cs32 := FromCOO(c, rt)
		cs32.EnableF32Values()
		fs32, wide := round32Factors(fs)
		w64 := cs32.AllModes(wide, 1)
		w32 := cs32.AllModes32(fs32, 1)
		for n := range dims {
			wd := w64[n].Data()
			for i, v := range w32[n].Data() {
				if v != float32(wd[i]) { //repro:bitwise shared walk + exact widening: only the final store rounds
					t.Fatalf("%v R=%d root %d all-modes32 mode %d elem %d: %v vs %v", dims, R, rt, n, i, v, float32(wd[i]))
				}
			}
		}
	})
}

// linearKey is a coordinate's column-major linear offset.
func linearKey(idx, dims []int) int {
	key := 0
	for k := len(dims) - 1; k >= 0; k-- {
		key = key*dims[k] + idx[k]
	}
	return key
}
