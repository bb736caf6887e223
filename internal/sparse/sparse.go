// Package sparse implements MTTKRP for sparse tensors in coordinate
// (COO) format — the future-work direction the paper's conclusion
// flags: "in this case, the communication requirements depend on the
// nonzero structure and can be expressed in terms of a hypergraph
// partitioning problem" [15], [23].
//
// The package provides the sequential kernel, 1D nonzero partitions,
// the standard (lambda-1) hypergraph connectivity metric that equals
// the communication volume of an expand/fold parallelization, and a
// measured parallel implementation on the simulated machine whose word
// counts match the metric exactly.
package sparse

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// COO is a sparse tensor in coordinate format, stored as
// struct-of-arrays: coords[k][e] is nonzero e's mode-k index and
// vals[e] its value, 4N+8 bytes per nonzero. Duplicate coordinates are
// allowed and are summed by consumers (standard COO semantics).
type COO struct {
	dims   []int
	coords [][]int32
	vals   []float64
}

// NewCOO creates an empty sparse tensor with the given dimensions. It
// panics on fewer than two modes or an extent outside [1, MaxInt32].
func NewCOO(dims ...int) *COO { return newCOO(dims, 0) }

// FromArrays makes a sparse tensor over the given arrays, not copies:
// nonzero e has mode-k index coords[k][e] and value vals[e]. It returns
// an error for extents NewCOO rejects, a coordinate array count other
// than the order, arrays of unequal length, or an index out of range.
func FromArrays(dims []int, coords [][]int32, vals []float64) (*COO, error) {
	if err := checkDims(dims); err != nil {
		return nil, err
	}
	if len(coords) != len(dims) {
		return nil, fmt.Errorf("sparse: %d coordinate arrays for order %d", len(coords), len(dims))
	}
	for k, col := range coords {
		if len(col) != len(vals) {
			return nil, fmt.Errorf("sparse: mode-%d coordinate array has %d entries for %d values", k, len(col), len(vals))
		}
		for e, i := range col {
			if i < 0 || int(i) >= dims[k] {
				return nil, fmt.Errorf("sparse: entry %d has mode-%d index %d outside extent %d", e, k, i, dims[k])
			}
		}
	}
	return &COO{dims: append([]int(nil), dims...), coords: coords, vals: vals}, nil
}

// checkDims rejects fewer than two modes and any extent outside
// [1, MaxInt32], the range an int32 coordinate holds.
func checkDims(dims []int) error {
	if len(dims) < 2 {
		return fmt.Errorf("sparse: need N >= 2 modes, got %v", dims)
	}
	for _, d := range dims {
		if d < 1 || d > math.MaxInt32 {
			return fmt.Errorf("sparse: bad dims %v", dims)
		}
	}
	return nil
}

// newCOO returns a tensor of nnz zero entries, arrays sized exactly.
func newCOO(dims []int, nnz int) *COO {
	if err := checkDims(dims); err != nil {
		panic(err)
	}
	c := &COO{dims: append([]int(nil), dims...), coords: make([][]int32, len(dims)), vals: make([]float64, nnz)}
	for k := range c.coords {
		c.coords[k] = make([]int32, nnz)
	}
	return c
}

// Dims returns a copy of the dimensions.
func (c *COO) Dims() []int { return append([]int(nil), c.dims...) }

// Order returns the number of modes.
func (c *COO) Order() int { return len(c.dims) }

// Dim returns the extent of mode k.
func (c *COO) Dim(k int) int { return c.dims[k] }

// NNZ returns the nonzero count.
func (c *COO) NNZ() int { return len(c.vals) }

// Coords returns the mode-k index of every nonzero (shared storage).
func (c *COO) Coords(k int) []int32 { return c.coords[k] }

// Values returns the value of every nonzero (shared storage).
func (c *COO) Values() []float64 { return c.vals }

// Append adds a nonzero. Duplicate coordinates are allowed and are
// summed by consumers (standard COO semantics).
func (c *COO) Append(val float64, idx ...int) {
	if len(idx) != len(c.dims) {
		panic(fmt.Sprintf("sparse: index rank %d for order %d", len(idx), len(c.dims)))
	}
	for k, i := range idx {
		if i < 0 || i >= c.dims[k] {
			panic(fmt.Sprintf("sparse: index %v out of dims %v", idx, c.dims))
		}
	}
	for k, i := range idx {
		c.coords[k] = append(c.coords[k], int32(i))
	}
	c.vals = append(c.vals, val)
}

// FromDense extracts entries with |value| > threshold.
func FromDense(x *tensor.Dense, threshold float64) *COO {
	keep := func(v float64) bool { return v > threshold || v < -threshold }
	nnz := 0
	for _, v := range x.Data() {
		if keep(v) {
			nnz++
		}
	}
	out := newCOO(x.Dims(), nnz)
	e := 0
	for off, v := range x.Data() {
		if keep(v) {
			out.set(e, off, v)
			e++
		}
	}
	return out
}

// set makes entry e the cell at column-major offset off, of value v.
func (c *COO) set(e, off int, v float64) {
	for k, d := range c.dims {
		c.coords[k][e] = int32(off % d)
		off /= d
	}
	c.vals[e] = v
}

// ToDense materializes the sparse tensor (duplicates summed).
func (c *COO) ToDense() *tensor.Dense {
	out := tensor.NewDense(c.dims...)
	data := out.Data()
	for e, v := range c.vals {
		off, stride := 0, 1
		for k, d := range c.dims {
			off += int(c.coords[k][e]) * stride
			stride *= d
		}
		data[off] += v
	}
	return out
}

// Random generates a sparse tensor with nnz distinct random nonzeros.
func Random(seed int64, nnz int, dims ...int) *COO {
	I := 1
	for _, d := range dims {
		I *= d
	}
	if nnz > I {
		panic(fmt.Sprintf("sparse: nnz %d exceeds %d cells", nnz, I))
	}
	out := newCOO(dims, nnz)
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[int]bool, nnz)
	for e := 0; e < nnz; {
		off := rng.Intn(I)
		if seen[off] {
			continue
		}
		seen[off] = true
		out.set(e, off, 2*rng.Float64()-1)
		e++
	}
	return out
}

// RandomBlocky generates nonzeros clustered into a few dense-ish
// sub-blocks — the structured case where a contiguous partition has
// far lower communication volume than a random one. A block spans
// min(blockSide, extent) indices of each mode.
func RandomBlocky(seed int64, blocks, perBlock, blockSide int, dims ...int) *COO {
	out := newCOO(dims, max(blocks, 0)*max(perBlock, 0))
	rng := rand.New(rand.NewSource(seed))
	e := 0
	for b := 0; b < blocks; b++ {
		lo := make([]int, len(dims))
		for k, d := range dims {
			if d > blockSide {
				lo[k] = rng.Intn(d - blockSide)
			}
		}
		for i := 0; i < perBlock; i++ {
			for k, d := range dims {
				out.coords[k][e] = int32(lo[k] + rng.Intn(min(blockSide, d)))
			}
			out.vals[e] = 2*rng.Float64() - 1
			e++
		}
	}
	return out
}

// MTTKRP computes B(n) for the sparse tensor with atomic per-nonzero
// products (only nonzero iterations contribute, the defining saving of
// the sparse case). The factor and output column slices are hoisted
// out of the per-entry loop, so the inner loops index raw slices
// instead of calling At/AddAt once per scalar.
func MTTKRP(c *COO, factors []*tensor.Matrix, n int) *tensor.Matrix {
	R, err := tensor.CheckFactors(c, factors, n)
	if err != nil {
		panic(err)
	}
	b := tensor.NewMatrix(c.dims[n], R)
	N := len(factors)
	cols := make([][]float64, N*R)
	for k, f := range factors {
		if k == n {
			continue
		}
		for r := 0; r < R; r++ {
			cols[k*R+r] = f.Col(r)
		}
	}
	bcols := make([][]float64, R)
	for r := 0; r < R; r++ {
		bcols[r] = b.Col(r)
	}
	coords := c.coords
	for e, v := range c.vals {
		i := coords[n][e]
		for r := 0; r < R; r++ {
			p := v
			for k := 0; k < N; k++ {
				if k == n {
					continue
				}
				p *= cols[k*R+r][coords[k][e]]
			}
			bcols[r][i] += p
		}
	}
	return b
}

// SortLinear orders the nonzeros by their column-major linear offset,
// giving contiguous partitions spatial coherence. The sort is stable:
// nonzeros at one coordinate keep their append order.
func (c *COO) SortLinear() {
	N := len(c.dims)
	perm := make([]int, N)
	for l := range perm {
		perm[l] = N - 1 - l
	}
	v := sortEntries(c, perm, true)
	for l, k := range perm {
		col := make([]int32, len(v.e))
		for s := range col {
			col[s] = v.index(s, l)
		}
		c.coords[k] = col
	}
	c.vals = make([]float64, len(v.e))
	for s, e := range v.e {
		c.vals[s] = e.val
	}
}
