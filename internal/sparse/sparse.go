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
	"math/rand"
	"sort"

	"repro/internal/tensor"
)

// Entry is one nonzero.
type Entry struct {
	Idx []int
	Val float64
}

// COO is a sparse tensor in coordinate format.
type COO struct {
	dims    []int
	entries []Entry
}

// NewCOO creates an empty sparse tensor with the given dimensions.
func NewCOO(dims ...int) *COO {
	if len(dims) < 2 {
		panic(fmt.Sprintf("sparse: need N >= 2 modes, got %v", dims))
	}
	for _, d := range dims {
		if d < 1 {
			panic(fmt.Sprintf("sparse: bad dims %v", dims))
		}
	}
	return &COO{dims: append([]int(nil), dims...)}
}

// Dims returns a copy of the dimensions.
func (c *COO) Dims() []int { return append([]int(nil), c.dims...) }

// Order returns the number of modes.
func (c *COO) Order() int { return len(c.dims) }

// Dim returns the extent of mode k.
func (c *COO) Dim(k int) int { return c.dims[k] }

// NNZ returns the nonzero count.
func (c *COO) NNZ() int { return len(c.entries) }

// Entries returns the underlying entries (shared storage).
func (c *COO) Entries() []Entry { return c.entries }

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
	c.entries = append(c.entries, Entry{Idx: append([]int(nil), idx...), Val: val})
}

// FromDense extracts entries with |value| > threshold.
func FromDense(x *tensor.Dense, threshold float64) *COO {
	out := NewCOO(x.Dims()...)
	for off, v := range x.Data() {
		if v > threshold || v < -threshold {
			out.entries = append(out.entries, Entry{Idx: x.MultiIndex(off), Val: v})
		}
	}
	return out
}

// ToDense materializes the sparse tensor (duplicates summed).
func (c *COO) ToDense() *tensor.Dense {
	out := tensor.NewDense(c.dims...)
	for _, e := range c.entries {
		out.Set(out.At(e.Idx...)+e.Val, e.Idx...)
	}
	return out
}

// Random generates a sparse tensor with nnz distinct random nonzeros.
func Random(seed int64, nnz int, dims ...int) *COO {
	out := NewCOO(dims...)
	I := 1
	for _, d := range dims {
		I *= d
	}
	if nnz > I {
		panic(fmt.Sprintf("sparse: nnz %d exceeds %d cells", nnz, I))
	}
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[int]bool, nnz)
	for len(seen) < nnz {
		off := rng.Intn(I)
		if seen[off] {
			continue
		}
		seen[off] = true
		idx := make([]int, len(dims))
		o := off
		for k, d := range dims {
			idx[k] = o % d
			o /= d
		}
		out.entries = append(out.entries, Entry{Idx: idx, Val: 2*rng.Float64() - 1})
	}
	return out
}

// RandomBlocky generates nonzeros clustered into a few dense-ish
// sub-blocks — the structured case where a contiguous partition has
// far lower communication volume than a random one.
func RandomBlocky(seed int64, blocks, perBlock, blockSide int, dims ...int) *COO {
	out := NewCOO(dims...)
	rng := rand.New(rand.NewSource(seed))
	for b := 0; b < blocks; b++ {
		lo := make([]int, len(dims))
		for k, d := range dims {
			if d > blockSide {
				lo[k] = rng.Intn(d - blockSide)
			}
		}
		for e := 0; e < perBlock; e++ {
			idx := make([]int, len(dims))
			for k := range dims {
				idx[k] = lo[k] + rng.Intn(blockSide)
			}
			out.entries = append(out.entries, Entry{Idx: idx, Val: 2*rng.Float64() - 1})
		}
	}
	return out
}

// MTTKRP computes B(n) for the sparse tensor with atomic per-nonzero
// products (only nonzero iterations contribute, the defining saving of
// the sparse case).
func MTTKRP(c *COO, factors []*tensor.Matrix, n int) *tensor.Matrix {
	R, err := tensor.CheckFactors(c, factors, n)
	if err != nil {
		panic(err)
	}
	b := tensor.NewMatrix(c.dims[n], R)
	accumulate(b, c.entries, factors, n, R)
	return b
}

// accumulate is the COO fallback kernel. The factor and output
// column slices are hoisted out of the per-entry loop so the inner
// loops index raw slices instead of going through At/AddAt accessor
// calls (and their bounds checks) once per scalar.
func accumulate(b *tensor.Matrix, entries []Entry, factors []*tensor.Matrix, n, R int) {
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
	for _, e := range entries {
		i := e.Idx[n]
		for r := 0; r < R; r++ {
			p := e.Val
			for k := 0; k < N; k++ {
				if k == n {
					continue
				}
				p *= cols[k*R+r][e.Idx[k]]
			}
			bcols[r][i] += p
		}
	}
}

// SortLinear orders entries by their column-major linear offset,
// giving contiguous partitions spatial coherence.
func (c *COO) SortLinear() {
	sort.Slice(c.entries, func(a, b int) bool {
		ea, eb := c.entries[a], c.entries[b]
		for k := len(c.dims) - 1; k >= 0; k-- {
			if ea.Idx[k] != eb.Idx[k] {
				return ea.Idx[k] < eb.Idx[k]
			}
		}
		return false
	})
}
