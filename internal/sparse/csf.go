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
	"fmt"
	"math"
	"sort"
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
func FromCOO(c *COO, root int) *CSF {
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
	if len(c.entries) > math.MaxInt32 {
		panic(fmt.Sprintf("sparse: nnz %d exceeds int32 pointer range", len(c.entries)))
	}
	perm := make([]int, 0, N)
	perm = append(perm, root)
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

	ents := c.entries
	ord := sortEntries(ents, c.dims, perm)

	if len(ord) == 0 {
		t.idx = make([][]int32, N)
		t.ptr = make([][]int32, N-1)
		for l := range t.ptr {
			t.ptr[l] = []int32{0}
		}
		t.rootLeaf = []int32{0}
		return t
	}

	// Pass 1: node counts per level after deduplication. An entry that
	// first differs from its predecessor at level d opens one new node
	// at every level >= d.
	counts := make([]int, N)
	for l := range counts {
		counts[l] = 1
	}
	for s := 1; s < len(ord); s++ {
		d := diffLevel(ents[ord[s-1]].Idx, ents[ord[s]].Idx, perm)
		for l := d; l < N; l++ {
			counts[l]++
		}
	}

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
	open := func(e Entry, from int) {
		for l := from; l < N; l++ {
			t.idx[l][pos[l]] = int32(e.Idx[perm[l]])
			if l < N-1 {
				t.ptr[l][pos[l]] = int32(pos[l+1])
			} else {
				t.vals[pos[l]] = e.Val
			}
			if l == 0 {
				t.rootLeaf[pos[0]] = int32(pos[N-1])
			}
			pos[l]++
		}
	}
	open(ents[ord[0]], 0)
	for s := 1; s < len(ord); s++ {
		e := ents[ord[s]]
		d := diffLevel(ents[ord[s-1]].Idx, e.Idx, perm)
		if d == N {
			t.vals[pos[N-1]-1] += e.Val // duplicate coordinate: sum
			continue
		}
		open(e, d)
	}
	for l := 0; l < N-1; l++ {
		t.ptr[l][counts[l]] = int32(counts[l+1])
	}
	t.rootLeaf[counts[0]] = int32(counts[N-1])
	return t
}

// sortEntries returns a permutation of the entry indices in
// lexicographic perm-major coordinate order, stable among duplicates
// (so their values sum in append order). When every coordinate packs
// into one uint64 linear offset it runs a stable LSD radix sort —
// roughly an order of magnitude faster than a comparator sort at
// nnz ~ 10^6 — and falls back to sort.SliceStable otherwise.
func sortEntries(ents []Entry, dims []int, perm []int) []int {
	ord := make([]int, len(ents))
	for i := range ord {
		ord[i] = i
	}
	if len(ord) < 2 {
		return ord
	}
	cells := uint64(1)
	packable := true
	for _, k := range perm {
		d := uint64(dims[k])
		if cells > math.MaxUint64/d {
			packable = false
			break
		}
		cells *= d
	}
	if !packable {
		sort.SliceStable(ord, func(a, b int) bool {
			ea, eb := ents[ord[a]].Idx, ents[ord[b]].Idx
			for _, k := range perm {
				if ea[k] != eb[k] {
					return ea[k] < eb[k]
				}
			}
			return false
		})
		return ord
	}
	keys := make([]uint64, len(ents))
	var maxKey uint64
	for i := range ents {
		key := uint64(0)
		for _, k := range perm {
			key = key*uint64(dims[k]) + uint64(ents[i].Idx[k])
		}
		keys[i] = key
		if key > maxKey {
			maxKey = key
		}
	}
	tmp := make([]int, len(ord))
	var count [256]int
	for shift := uint(0); maxKey>>shift > 0 || shift == 0; shift += 8 {
		for i := range count {
			count[i] = 0
		}
		for _, o := range ord {
			count[(keys[o]>>shift)&0xff]++
		}
		if count[keys[ord[0]]>>shift&0xff] == len(ord) {
			continue // every key shares this digit
		}
		sum := 0
		for i, n := range count {
			count[i] = sum
			sum += n
		}
		for _, o := range ord {
			d := (keys[o] >> shift) & 0xff
			tmp[count[d]] = o
			count[d]++
		}
		ord, tmp = tmp, ord
	}
	return ord
}

// diffLevel returns the first level (in perm order) where two
// coordinates differ, or len(perm) when they are equal.
func diffLevel(a, b []int, perm []int) int {
	for l, k := range perm {
		if a[k] != b[k] {
			return l
		}
	}
	return len(perm)
}

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
	t.vals32 = make([]float32, len(t.vals))
	for i, v := range t.vals {
		t.vals32[i] = float32(v)
	}
	// Re-round the float64 copy so ToCOO and the reference kernels see
	// exactly the values the f32 stream holds.
	for i, v := range t.vals32 {
		t.vals[i] = float64(v)
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
	out := NewCOO(t.dims...)
	N := len(t.dims)
	path := make([]int32, N)
	var walk func(lv int, node int32)
	walk = func(lv int, node int32) {
		path[lv] = t.idx[lv][node]
		if lv == N-1 {
			idx := make([]int, N)
			for l, k := range t.perm {
				idx[k] = int(path[l])
			}
			out.entries = append(out.entries, Entry{Idx: idx, Val: t.vals[node]})
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
