package sparse

// Compressed sparse fiber (CSF) representation: the nonzeros of a COO
// tensor arranged as a forest of fibers rooted at one mode, in the
// style of SPLATT (Smith & Karypis). Level 0 of the tree holds the
// distinct root-mode indices; each deeper level splits its parent
// fiber by the next mode's index; the leaves carry the values. The
// tree is stored as contiguous int32 index/pointer slabs (one backing
// array for all levels), so a traversal is a pointer-chase-free walk
// over dense, cache-resident arrays, and every duplicate coordinate
// has been summed at construction. Shared index prefixes are stored —
// and later multiplied — once per fiber instead of once per nonzero,
// which is where the MTTKRP kernel's arithmetic saving over COO comes
// from (see csfkernel.go).

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// CSF is a sparse tensor compressed into a fiber tree rooted at one
// mode. Construction sorts and deduplicates; the resulting slabs are
// immutable, so one CSF may be shared by concurrent readers.
type CSF struct {
	dims []int
	perm []int // perm[lv] = tensor mode stored at level lv; perm[0] is the root
	lvl  []int // lvl[k] = level of tensor mode k (inverse of perm)

	// ptr[lv] (lv < N-1) has len nodes(lv)+1: the children of node i
	// at level lv occupy [ptr[lv][i], ptr[lv][i+1]) at level lv+1.
	ptr [][]int32
	// idx[lv] has len nodes(lv): the mode-perm[lv] index of each node.
	idx [][]int32
	// vals are the leaf values, aligned with idx[N-1].
	vals []float64
	// vals32 is the optional float32 mirror of vals (EnableF32Values):
	// when non-nil the kernels stream leaf values from it — half the
	// bytes on the dominant read stream — and widen to float64 for
	// every accumulation.
	vals32 []float32

	// rootLeaf[f] is the first leaf under root fiber f (len roots+1);
	// the cumulative nonzero counts behind the nnz-balanced chunk
	// tiling of the parallel kernel.
	rootLeaf []int32
}

// FromCOO builds a fiber tree rooted at the given mode: entries are
// sorted lexicographically with the root mode outermost (remaining
// modes in ascending order), duplicate coordinates are summed in their
// append order, and the per-level index/pointer slabs are carved from
// single contiguous int32 allocations. The COO tensor is not modified.
func FromCOO(c *COO, root int) *CSF { return fromCOO(c, root, true) }

// fromCOO is FromCOO; byKey false sorts with the comparator even when
// the coordinates pack into one key.
func fromCOO(c *COO, root int, byKey bool) *CSF {
	N := c.Order()
	if N < 2 {
		panic("sparse: CSF requires an order >= 2 tensor")
	}
	if root < 0 || root >= N {
		panic(fmt.Sprintf("sparse: root mode %d out of range [0,%d)", root, N))
	}
	for _, d := range c.dims {
		if d > math.MaxInt32 {
			panic(fmt.Sprintf("sparse: dim %d exceeds int32 index range", d))
		}
	}
	if c.NNZ() > math.MaxInt32 {
		panic(fmt.Sprintf("sparse: nnz %d exceeds int32 pointer range", c.NNZ()))
	}
	perm := []int{root}
	for k := 0; k < N; k++ {
		if k != root {
			perm = append(perm, k)
		}
	}
	lvl := make([]int, N)
	for l, k := range perm {
		lvl[k] = l
	}
	t := &CSF{
		dims: append([]int(nil), c.dims...),
		perm: perm,
		lvl:  lvl,
	}

	v := sortEntries(c, perm, byKey)
	n := len(v.e)

	// Pass 1: node counts per level after deduplication. An entry that
	// first differs from its predecessor at level d opens one new node
	// at every level >= d.
	counts := make([]int, N+1) // entries first differing at each level, then nodes
	for s := 0; s < n; s++ {
		counts[v.level(s)]++
	}
	for l := 1; l < N; l++ {
		counts[l] += counts[l-1]
	}
	counts = counts[:N]

	// Carve the per-level views out of two contiguous slabs.
	idxTotal, ptrTotal := 0, 0
	for l, n := range counts {
		idxTotal += n
		if l < N-1 {
			ptrTotal += n + 1
		}
	}
	idxSlab := make([]int32, idxTotal)
	ptrSlab := make([]int32, ptrTotal)
	t.idx = make([][]int32, N)
	t.ptr = make([][]int32, N-1)
	io, po := 0, 0
	for l := 0; l < N; l++ {
		t.idx[l] = idxSlab[io : io+counts[l]]
		io += counts[l]
		if l < N-1 {
			t.ptr[l] = ptrSlab[po : po+counts[l]+1]
			po += counts[l] + 1
		}
	}
	t.vals = make([]float64, counts[N-1])
	t.rootLeaf = make([]int32, counts[0]+1)

	// Pass 2: fill. pos[l] is the next free node slot at level l; a
	// node's child pointer is the child level's cursor at open time
	// (children always open immediately after their parent).
	pos := make([]int, N)
	for s := 0; s < n; s++ {
		d := v.level(s)
		if d == N {
			t.vals[pos[N-1]-1] += v.e[s].val // duplicate coordinate: sum
			continue
		}
		for l := d; l < N; l++ {
			t.idx[l][pos[l]] = v.index(s, l)
			if l < N-1 {
				t.ptr[l][pos[l]] = int32(pos[l+1])
			} else {
				t.vals[pos[l]] = v.e[s].val
			}
			if l == 0 {
				t.rootLeaf[pos[0]] = int32(pos[N-1])
			}
			pos[l]++
		}
	}
	for l := 0; l < N-1; l++ {
		t.ptr[l][counts[l]] = int32(counts[l+1])
	}
	t.rootLeaf[counts[0]] = int32(counts[N-1])
	return t
}

// sorted is a COO tensor's entries in level order, level l holding
// mode perm[l]; e[s].val is the s-th entry's value. On the key path
// e[s].key packs its level-l index into the width[l] bits from
// shift[l] up; on the comparator path it is entry pos[s], its indices
// in cols[l], mode perm[l]'s coordinates.
type sorted struct {
	e            []keyVal
	pos          []int // nil on the key path
	shift, width []uint
	cols         [][]int32
}

// keyVal is one entry's packed key and value.
type keyVal struct {
	key uint64
	val float64
}

// level returns the first level at which entry s differs from entry
// s-1 (0 for the first entry), or the order when they are equal: on the
// key path the level whose field holds the highest differing key bit.
func (v *sorted) level(s int) int {
	if s == 0 {
		return 0
	}
	if v.pos == nil {
		x := v.e[s].key ^ v.e[s-1].key
		if x == 0 {
			return len(v.cols)
		}
		l, b := 0, uint(63-bits.LeadingZeros64(x))
		for b < v.shift[l] {
			l++
		}
		return l
	}
	p, q := v.pos[s], v.pos[s-1]
	for l, col := range v.cols {
		if col[p] != col[q] {
			return l
		}
	}
	return len(v.cols)
}

// index returns entry s's index at level l.
func (v *sorted) index(s, l int) int32 {
	if v.pos == nil {
		return int32(v.e[s].key >> v.shift[l] & (1<<v.width[l] - 1))
	}
	return v.cols[l][v.pos[s]]
}

// sortEntries orders c's entries lexicographically by level, stably,
// so duplicates keep their append order. When byKey is set and every
// level's index fits a bit field of one uint64 key (level 0 the most
// significant), it radix-sorts the keys with the values; otherwise it
// sorts positions with a comparator over the coordinate arrays.
func sortEntries(c *COO, perm []int, byKey bool) sorted {
	n, N := c.NNZ(), len(perm)
	v := sorted{shift: make([]uint, N), width: make([]uint, N), cols: make([][]int32, N)}
	total := uint(0)
	for l := N - 1; l >= 0; l-- {
		v.cols[l] = c.coords[perm[l]]
		v.shift[l] = total
		v.width[l] = uint(bits.Len(uint(c.dims[perm[l]] - 1)))
		total += v.width[l]
	}
	if byKey && total <= 64 {
		v.radixSort(c.vals, total)
		return v
	}
	v.pos = make([]int, n)
	for i := range v.pos {
		v.pos[i] = i
	}
	slices.SortStableFunc(v.pos, func(p, q int) int {
		for _, col := range v.cols {
			if c := cmp.Compare(col[p], col[q]); c != 0 {
				return c
			}
		}
		return 0
	})
	v.e = make([]keyVal, n)
	for s, p := range v.pos {
		v.e[s].val = c.vals[p]
	}
	return v
}

// radixSort builds every entry's key of total bits and sorts the keys
// with their values into v.e: a stable LSD radix sort on radixBits-bit
// digits, every digit's histogram counted while the keys are built.
func (v *sorted) radixSort(vals []float64, total uint) {
	n := len(vals)
	count := make([][1 << radixBits]int, (total+radixBits-1)/radixBits)
	a := make([]keyVal, n)
	for i := range a {
		var key uint64
		for l, col := range v.cols {
			key |= uint64(col[i]) << v.shift[l]
		}
		a[i] = keyVal{key, vals[i]}
		for d := range count {
			count[d][key>>(radixBits*d)&radixMask]++
		}
	}
	t := make([]keyVal, n)
	for d := range count {
		cnt, sh := &count[d], uint(radixBits*d)
		if n == 0 || cnt[a[0].key>>sh&radixMask] == n {
			continue // every key shares this digit
		}
		sum := 0
		for i, m := range cnt {
			cnt[i] = sum
			sum += m
		}
		for _, e := range a {
			j := &cnt[e.key>>sh&radixMask]
			t[*j] = e
			*j++
		}
		a, t = t, a
	}
	v.e = a
}

// radixBits is radixSort's digit width: two passes sort the 24-bit
// keys of a 256^3 tensor.
const radixBits, radixMask = 12, 1<<12 - 1

// Order returns the number of modes.
func (t *CSF) Order() int { return len(t.dims) }

// Dims returns a copy of the tensor dimensions.
func (t *CSF) Dims() []int { return append([]int(nil), t.dims...) }

// Dim returns the extent of mode k.
func (t *CSF) Dim(k int) int { return t.dims[k] }

// Root returns the mode the fiber tree is rooted at.
func (t *CSF) Root() int { return t.perm[0] }

// NNZ returns the number of stored (deduplicated) nonzeros.
func (t *CSF) NNZ() int { return len(t.vals) }

// EnableF32Values converts the leaf-value stream to float32 storage
// (rounding once per value) and points the kernels at it. The fiber
// tree, factor mirrors, and all accumulation stay float64; only the
// nnz-length value stream shrinks. Irreversible precision loss for
// this tree — build a fresh CSF to return to float64 values.
func (t *CSF) EnableF32Values() {
	if t.vals32 != nil {
		return
	}
	// Re-round the float64 copy too, so ToCOO and the reference kernels
	// see exactly the values the f32 stream holds.
	t.vals32 = make([]float32, len(t.vals))
	for i, v := range t.vals {
		t.vals32[i] = float32(v)
		t.vals[i] = float64(t.vals32[i])
	}
}

// F32Values reports whether the float32 value stream is active.
func (t *CSF) F32Values() bool { return t.vals32 != nil }

// Fibers returns the number of root fibers (distinct root-mode
// indices present).
func (t *CSF) Fibers() int { return len(t.idx[0]) }

// Nodes returns the node count at tree level lv (level 0 = root
// fibers, level N-1 = nonzeros).
func (t *CSF) Nodes(lv int) int { return len(t.idx[lv]) }

// ToCOO expands the tree back to coordinate form (sorted fiber
// order), primarily for tests.
func (t *CSF) ToCOO() *COO {
	N := len(t.dims)
	out := newCOO(t.dims, len(t.vals))
	copy(out.vals, t.vals)
	path := make([]int32, N)
	e := 0
	var walk func(lv int, node int32)
	walk = func(lv int, node int32) {
		path[lv] = t.idx[lv][node]
		if lv == N-1 {
			for l, k := range t.perm {
				out.coords[k][e] = path[l]
			}
			e++
			return
		}
		for c := t.ptr[lv][node]; c < t.ptr[lv][node+1]; c++ {
			walk(lv+1, c)
		}
	}
	for f := range t.idx[0] {
		walk(0, int32(f))
	}
	return out
}

// kernelCost returns the streaming-model traffic of one kernel pass
// over the tree for output level lout (-1 = the all-modes pass):
// reads cover the leaf values, one factor row per participating node,
// and the read half of the output accumulations; writes cover the
// output accumulations; flops count the per-node prefix extension
// (R), subtree fold (2R), and output accumulate (2R) passes. The
// counts depend only on the tree shape, so totals are trivially
// independent of the worker count.
func (t *CSF) kernelCost(lout, R int) (reads, writes, flops int64) {
	N := len(t.dims)
	r64 := int64(R)
	reads = int64(len(t.vals)) // leaf values
	for lv := 0; lv < N; lv++ {
		m := int64(len(t.idx[lv]))
		if lout < 0 { // all-modes pass
			if lv != N-1 {
				reads += m * r64 // factor row per node with children
				flops += m * r64 // prefix extension
			}
			if lv != 0 {
				reads += m * r64 // factor row folded into the parent sum
				flops += 2 * m * r64
			}
			reads += m * r64 // output row read-modify-write
			writes += m * r64
			flops += 2 * m * r64
			continue
		}
		switch {
		case lv == lout:
			reads += m * r64
			writes += m * r64
			flops += 2 * m * r64
		case lv < lout:
			reads += m * r64 // prefix factor row
			if lv > 0 {
				flops += m * r64
			}
		default:
			reads += m * r64 // subtree factor row (leaf rows included)
			flops += 2 * m * r64
		}
	}
	return reads, writes, flops
}
