package sparse

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/seq"
	"repro/internal/tensor"
)

func TestFromDenseToDenseRoundTrip(t *testing.T) {
	x := tensor.RandomDense(1, 4, 5, 3)
	s := FromDense(x, 0)
	if s.NNZ() != x.Elems() {
		t.Fatalf("nnz %d, want all %d", s.NNZ(), x.Elems())
	}
	if !s.ToDense().EqualApprox(x, 0) {
		t.Fatal("round trip failed")
	}
}

func TestFromDenseThreshold(t *testing.T) {
	x := tensor.NewDense(2, 2)
	x.Set(0.5, 0, 0)
	x.Set(0.01, 1, 1)
	s := FromDense(x, 0.1)
	if s.NNZ() != 1 {
		t.Fatalf("nnz = %d, want 1", s.NNZ())
	}
}

func TestSparseMTTKRPMatchesDense(t *testing.T) {
	dims := []int{5, 4, 6}
	R := 3
	s := Random(7, 30, dims...)
	fs := tensor.RandomFactors(8, dims, R)
	x := s.ToDense()
	for n := range dims {
		got := MTTKRP(s, fs, n)
		want := seq.Ref(x, fs, n)
		if !got.EqualApprox(want, 1e-10) {
			t.Fatalf("mode %d mismatch %v", n, got.MaxAbsDiff(want))
		}
	}
}

func TestSparseMTTKRPSumsDuplicates(t *testing.T) {
	s := NewCOO(3, 3)
	s.Append(1, 1, 1)
	s.Append(2, 1, 1) // duplicate coordinate
	fs := tensor.RandomFactors(9, []int{3, 3}, 2)
	got := MTTKRP(s, fs, 0)
	want := seq.Ref(s.ToDense(), fs, 0)
	if !got.EqualApprox(want, 1e-12) {
		t.Fatal("duplicates not summed")
	}
}

// TestRandomDraws pins Random's and RandomBlocky's draws, so a change
// to the generators' RNG calls or their order shows, and checks that a
// block wider than a mode stays inside its extent.
func TestRandomDraws(t *testing.T) {
	for _, c := range []struct {
		c    *COO
		want []string
	}{
		{Random(3, 4, 5, 6, 7), []string{
			"[3 5 5] 0x3fd38967f931a504", "[1 1 5] 0x3fe129287d10a06c",
			"[2 3 2] 0xbfe1fabaea01fb76", "[1 1 1] 0x3f8f7b6ba9383480"}},
		{RandomBlocky(4, 2, 2, 3, 8, 5, 9), []string{
			"[6 0 2] 0x3fe5150cba58fca2", "[5 1 1] 0xbfd54fa23658a15e",
			"[1 2 7] 0xbfbd2b8b37e23bd0", "[3 3 6] 0x3fe374f2af9a3cb6"}},
	} {
		if c.c.NNZ() != len(c.want) {
			t.Fatalf("%d entries, want %d", c.c.NNZ(), len(c.want))
		}
		for e, w := range c.want {
			if got := fmt.Sprintf("%v %#x", entryIndex(c.c, e), math.Float64bits(c.c.Values()[e])); got != w {
				t.Errorf("entry %d = %s, want %s", e, got, w)
			}
		}
	}
	dims := []int{3, 2, 9}
	b := RandomBlocky(5, 4, 20, 5, dims...)
	for k, d := range dims {
		for e, i := range b.Coords(k) {
			if int(i) >= d {
				t.Fatalf("RandomBlocky entry %d: mode-%d index %d outside extent %d", e, k, i, d)
			}
		}
	}
}

func TestRandomGeneratesDistinct(t *testing.T) {
	s := Random(3, 20, 4, 4, 4)
	if s.NNZ() != 20 {
		t.Fatalf("nnz = %d", s.NNZ())
	}
	seen := make(map[[3]int]bool)
	for e := 0; e < s.NNZ(); e++ {
		key := [3]int(entryIndex(s, e))
		if seen[key] {
			t.Fatal("duplicate coordinate from Random")
		}
		seen[key] = true
	}
}

// TestSortLinear: the entries end in linear-offset order, and entries
// at one coordinate keep their append order, on the key path and on a
// shape too large to pack into one key.
func TestSortLinear(t *testing.T) {
	for _, dims := range [][]int{{4, 4}, {math.MaxInt32, math.MaxInt32, math.MaxInt32}} {
		s := NewCOO(dims...)
		rng := rand.New(rand.NewSource(5))
		idx := make([]int, len(dims))
		for e := 0; e < 40; e++ {
			for k := range idx {
				idx[k] = rng.Intn(min(dims[k], 4))
			}
			s.Append(float64(e), idx...)
		}
		s.SortLinear()
		for e := 1; e < s.NNZ(); e++ {
			a, b := entryIndex(s, e-1), entryIndex(s, e)
			if c := cmpLinear(a, b); c > 0 || c == 0 && s.Values()[e-1] > s.Values()[e] {
				t.Fatalf("%v: entry %d %v (%v) after %v (%v)", dims, e, b, s.Values()[e], a, s.Values()[e-1])
			}
		}
		checkFootprint(t, fmt.Sprint("SortLinear ", dims), s)
	}
}

func TestPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewCOO(3) },
		func() { NewCOO(3, 0) },
		func() { NewCOO(3, 3).Append(1, 5, 0) },
		func() { NewCOO(3, 3).Append(1, 0) },
		func() { Random(1, 100, 2, 2) },
		func() { MTTKRP(Random(1, 2, 2, 2), tensor.RandomFactors(1, []int{2, 2}, 2), 5) },
		func() { MTTKRP(Random(1, 2, 2, 2), nil, 0) },
		func() { BlockPartition(Random(1, 2, 2, 2), 0) },
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

// Property: sparse kernel equals dense reference on random sparse
// tensors, all modes.
func TestSparseMatchesDenseQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		N := 2 + rng.Intn(2)
		dims := make([]int, N)
		I := 1
		for i := range dims {
			dims[i] = 2 + rng.Intn(4)
			I *= dims[i]
		}
		nnz := 1 + rng.Intn(I)
		R := 1 + rng.Intn(3)
		s := Random(seed, nnz, dims...)
		fs := tensor.RandomFactors(seed+1, dims, R)
		n := rng.Intn(N)
		return MTTKRP(s, fs, n).EqualApprox(seq.Ref(s.ToDense(), fs, n), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// entryIndex returns nonzero e's coordinates.
func entryIndex(c *COO, e int) []int {
	idx := make([]int, c.Order())
	for k := range idx {
		idx[k] = int(c.Coords(k)[e])
	}
	return idx
}

// cmpLinear compares two coordinates by column-major linear offset.
func cmpLinear(a, b []int) int {
	for k := len(a) - 1; k >= 0; k-- {
		if a[k] != b[k] {
			return cmp.Compare(a[k], b[k])
		}
	}
	return 0
}

// TestFootprint: every tensor the package builds holds exactly its
// coordinate and value arrays, each of len = cap = the entry count, so
// a stored nonzero costs 4N+8 bytes: an array grown by append without
// sizing, or a derived array kept on the tensor, fails it. So does a
// tree build or a parallel run leaving anything on its input.
func TestFootprint(t *testing.T) {
	dims := []int{9, 8, 7}
	c := Random(3, 200, dims...)
	checkFootprint(t, "Random", c)
	FromCOO(c, 1)
	checkFootprint(t, "Random after FromCOO", c)
	checkFootprint(t, "RandomBlocky", RandomBlocky(4, 3, 20, 3, dims...))
	x := tensor.RandomDense(5, 6, 5, 4)
	checkFootprint(t, "FromDense", FromDense(x, 0.5))
	checkFootprint(t, "FromDense(0)", FromDense(x, 0))
	dup := Random(6, 50, dims...)
	for e := 0; e < 50; e += 2 {
		dup.Append(1, entryIndex(dup, e)...)
	}
	checkFootprint(t, "CSF.ToCOO", FromCOO(dup, 2).ToCOO())
	part := RandomPartition(c, 3, 7)
	for p, l := range split(c, part) {
		checkFootprint(t, fmt.Sprint("split part ", p), l)
	}
	if _, err := ParallelMTTKRP(c, tensor.RandomFactors(8, dims, 2), 0, part); err != nil {
		t.Fatal(err)
	}
	checkFootprint(t, "Random after ParallelMTTKRP", c)
}

// checkFootprint fails unless c holds nothing but its extents, the
// per-mode array headers, and N coordinate arrays and one value array
// of len = cap = NNZ.
func checkFootprint(t *testing.T, what string, c *COO) {
	t.Helper()
	nnz, N := c.NNZ(), c.Order()
	for k := 0; k < N; k++ {
		if a := c.Coords(k); len(a) != nnz || cap(a) != nnz {
			t.Errorf("%s: mode-%d coordinates len %d cap %d, want %d", what, k, len(a), cap(a), nnz)
		}
	}
	if a := c.Values(); len(a) != nnz || cap(a) != nnz {
		t.Errorf("%s: values len %d cap %d, want %d", what, len(a), cap(a), nnz)
	}
	fixed := cap(c.dims)*int(reflect.TypeFor[int]().Size()) + cap(c.coords)*int(reflect.TypeFor[[]int32]().Size())
	if got, want := heldBytes(reflect.ValueOf(*c))-fixed, nnz*(4*N+8); got != want {
		t.Errorf("%s: %d bytes of entry arrays for %d order-%d nonzeros, want %d", what, got, nnz, N, want)
	}
}

// heldBytes sums the backing arrays reachable from v through slices
// and struct fields; any other reference fails loudly, so a new kind
// of field must be accounted for here.
func heldBytes(v reflect.Value) int {
	switch v.Kind() {
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			n += heldBytes(v.Field(i))
		}
		return n
	case reflect.Slice:
		n := v.Cap() * int(v.Type().Elem().Size())
		if k := v.Type().Elem().Kind(); k == reflect.Slice || k == reflect.Struct {
			for i := 0; i < v.Len(); i++ {
				n += heldBytes(v.Index(i))
			}
		}
		return n
	case reflect.Int, reflect.Int32, reflect.Float64:
		return 0
	}
	panic(fmt.Sprintf("heldBytes: unaccounted %v field", v.Type()))
}
