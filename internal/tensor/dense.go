// Package tensor provides dense N-way tensors and factor matrices, the
// data objects on which MTTKRP operates.
//
// Tensors are stored in generalized column-major order (the first index
// varies fastest), matching the convention of the tensor-decomposition
// literature (Kolda & Bader, SIAM Review 2009). Matrices are stored
// column-major for the same reason: factor matrices are tall and skinny
// (I_k x R) and their columns are the rank-one components.
package tensor

import (
	"fmt"
	"math"
)

// Dense is a dense N-way tensor of float64 values in generalized
// column-major layout: element (i_1, ..., i_N) lives at linear offset
// i_1 + I_1*(i_2 + I_2*(i_3 + ...)). Indices are 0-based.
type Dense struct {
	dims    []int
	strides []int
	data    []float64
}

// NewDense allocates a zero tensor with the given dimensions.
// It panics if any dimension is non-positive or the element count
// overflows int.
func NewDense(dims ...int) *Dense {
	n := checkedElems(dims)
	return &Dense{
		dims:    append([]int(nil), dims...),
		strides: stridesOf(dims),
		data:    make([]float64, n),
	}
}

// NewDenseFromData wraps an existing slice as a tensor. The slice is not
// copied; len(data) must equal the product of dims.
func NewDenseFromData(data []float64, dims ...int) *Dense {
	n := checkedElems(dims)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match dims %v (need %d)", len(data), dims, n))
	}
	return &Dense{
		dims:    append([]int(nil), dims...),
		strides: stridesOf(dims),
		data:    data,
	}
}

func checkedElems(dims []int) int {
	if len(dims) == 0 {
		panic("tensor: need at least one dimension")
	}
	n := 1
	for _, d := range dims {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension in %v", dims))
		}
		if n > math.MaxInt/d {
			panic(fmt.Sprintf("tensor: element count overflows for dims %v", dims))
		}
		n *= d
	}
	return n
}

func stridesOf(dims []int) []int {
	s := make([]int, len(dims))
	acc := 1
	for k, d := range dims {
		s[k] = acc
		acc *= d
	}
	return s
}

// Order returns the number of modes N.
func (t *Dense) Order() int { return len(t.dims) }

// Dims returns a copy of the dimension sizes.
func (t *Dense) Dims() []int { return append([]int(nil), t.dims...) }

// Dim returns the size of mode k.
func (t *Dense) Dim(k int) int { return t.dims[k] }

// Elems returns the total number of elements I = I_1 * ... * I_N.
func (t *Dense) Elems() int { return len(t.data) }

// Data returns the underlying column-major storage. Mutating it mutates
// the tensor.
func (t *Dense) Data() []float64 { return t.data }

// Offset converts a multi-index to the linear offset into Data.
func (t *Dense) Offset(idx ...int) int {
	if len(idx) != len(t.dims) {
		panic(fmt.Sprintf("tensor: index rank %d != order %d", len(idx), len(t.dims)))
	}
	off := 0
	for k, i := range idx {
		if i < 0 || i >= t.dims[k] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for dims %v", idx, t.dims))
		}
		off += i * t.strides[k]
	}
	return off
}

// MultiIndex converts a linear offset back to a multi-index, the inverse
// of Offset.
func (t *Dense) MultiIndex(off int) []int {
	if off < 0 || off >= len(t.data) {
		panic(fmt.Sprintf("tensor: offset %d out of range [0,%d)", off, len(t.data)))
	}
	idx := make([]int, len(t.dims))
	for k, d := range t.dims {
		idx[k] = off % d
		off /= d
	}
	return idx
}

// At returns the element at the given multi-index.
func (t *Dense) At(idx ...int) float64 { return t.data[t.Offset(idx...)] }

// Set assigns the element at the given multi-index.
func (t *Dense) Set(v float64, idx ...int) { t.data[t.Offset(idx...)] = v }

// Clone returns a deep copy.
func (t *Dense) Clone() *Dense {
	c := NewDense(t.dims...)
	copy(c.data, t.data)
	return c
}

// Fill sets every element to v.
func (t *Dense) Fill(v float64) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Norm returns the Frobenius norm sqrt(sum of squares).
func (t *Dense) Norm() float64 {
	var s float64
	for _, v := range t.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Add accumulates alpha*u into t. Shapes must match.
func (t *Dense) Add(alpha float64, u *Dense) {
	if !sameDims(t.dims, u.dims) {
		panic(fmt.Sprintf("tensor: shape mismatch %v vs %v", t.dims, u.dims))
	}
	for i, v := range u.data {
		t.data[i] += alpha * v
	}
}

// MaxAbsDiff returns the largest absolute elementwise difference.
func (t *Dense) MaxAbsDiff(u *Dense) float64 {
	if !sameDims(t.dims, u.dims) {
		panic(fmt.Sprintf("tensor: shape mismatch %v vs %v", t.dims, u.dims))
	}
	var m float64
	for i := range t.data {
		if d := math.Abs(t.data[i] - u.data[i]); d > m {
			m = d
		}
	}
	return m
}

// EqualApprox reports whether all elements agree within tol.
func (t *Dense) EqualApprox(u *Dense, tol float64) bool {
	return sameDims(t.dims, u.dims) && t.MaxAbsDiff(u) <= tol
}

// SubTensor extracts the block t[lo[0]:hi[0], ..., lo[N-1]:hi[N-1])
// into a freshly allocated tensor. The block's mode-0 runs are
// contiguous in both tensors, so it copies one run at a time.
func (t *Dense) SubTensor(lo, hi []int) *Dense {
	if len(lo) != len(t.dims) || len(hi) != len(t.dims) {
		panic("tensor: SubTensor bounds rank mismatch")
	}
	dims := make([]int, len(t.dims))
	for k := range dims {
		if lo[k] < 0 || hi[k] > t.dims[k] || lo[k] >= hi[k] {
			panic(fmt.Sprintf("tensor: bad SubTensor range [%d,%d) in mode %d of size %d", lo[k], hi[k], k, t.dims[k]))
		}
		dims[k] = hi[k] - lo[k]
	}
	out := NewDense(dims...)
	run := dims[0]
	idx := make([]int, len(dims)) // modes 1..N-1 of the run's start
	for off := 0; off < len(out.data); off += run {
		src := lo[0]
		for k := 1; k < len(idx); k++ {
			src += (lo[k] + idx[k]) * t.strides[k]
		}
		copy(out.data[off:off+run], t.data[src:src+run])
		incIndex(idx[1:], dims[1:])
	}
	return out
}

// incIndex advances a column-major multi-index by one position.
func incIndex(idx, dims []int) {
	for k := range idx {
		idx[k]++
		if idx[k] < dims[k] {
			return
		}
		idx[k] = 0
	}
}

func sameDims(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
