package tensor

import (
	"fmt"
	"math"
)

// Float32 storage mirrors: the memory-bound side of the float32 path.
// Matrix32 and Dense32 hold the same column-major layouts as Matrix
// and Dense with half the bytes per word; values convert on ingest
// (FromMatrix/FromDense or Set) and widen back to float64 on read.
// All arithmetic above this layer accumulates in float64 — the
// engines read float32 streams and store float32 results, nothing
// else changes (see DESIGN.md §10).

// Matrix32 is a dense column-major float32 matrix.
type Matrix32 struct {
	rows, cols int
	data       []float32 // data[i + r*rows]
}

// NewMatrix32 allocates a zero rows x cols float32 matrix.
func NewMatrix32(rows, cols int) *Matrix32 {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("tensor: non-positive matrix shape %dx%d", rows, cols))
	}
	if rows > math.MaxInt/cols {
		panic(fmt.Sprintf("tensor: matrix %dx%d overflows", rows, cols))
	}
	return &Matrix32{rows: rows, cols: cols, data: make([]float32, rows*cols)}
}

// Matrix32FromMatrix converts a float64 matrix on ingest, rounding
// every element once.
func Matrix32FromMatrix(m *Matrix) *Matrix32 {
	out := NewMatrix32(m.rows, m.cols)
	for i, v := range m.data {
		out.data[i] = float32(v)
	}
	return out
}

// Rows returns the row count.
func (m *Matrix32) Rows() int { return m.rows }

// Cols returns the column count.
func (m *Matrix32) Cols() int { return m.cols }

// Data returns the underlying column-major float32 storage.
func (m *Matrix32) Data() []float32 { return m.data }

// At returns element (i, j) widened to float64.
func (m *Matrix32) At(i, j int) float64 {
	m.check(i, j)
	return float64(m.data[i+j*m.rows])
}

// Set assigns element (i, j), rounding to float32.
func (m *Matrix32) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i+j*m.rows] = float32(v)
}

func (m *Matrix32) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("tensor: matrix index (%d,%d) out of %dx%d", i, j, m.rows, m.cols))
	}
}

// Col returns column j as a slice aliasing the matrix storage.
func (m *Matrix32) Col(j int) []float32 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("tensor: column %d out of %d", j, m.cols))
	}
	return m.data[j*m.rows : (j+1)*m.rows]
}

// ToMatrix widens the matrix back to float64 storage.
func (m *Matrix32) ToMatrix() *Matrix {
	out := NewMatrix(m.rows, m.cols)
	for i, v := range m.data {
		out.data[i] = float64(v)
	}
	return out
}

// MaxAbsDiff returns the largest absolute elementwise difference
// against a float64 matrix, computed in float64.
func (m *Matrix32) MaxAbsDiff(u *Matrix) float64 {
	if m.rows != u.rows || m.cols != u.cols {
		panic(fmt.Sprintf("tensor: matrix shape mismatch %dx%d vs %dx%d", m.rows, m.cols, u.rows, u.cols))
	}
	var d float64
	for i := range m.data {
		if a := math.Abs(float64(m.data[i]) - u.data[i]); a > d {
			d = a
		}
	}
	return d
}

// Dense32 is a dense N-way float32 tensor in the same generalized
// column-major layout as Dense.
type Dense32 struct {
	dims    []int
	strides []int
	data    []float32
}

// NewDense32 allocates a zero float32 tensor with the given
// dimensions.
func NewDense32(dims ...int) *Dense32 {
	n := checkedElems(dims)
	return &Dense32{
		dims:    append([]int(nil), dims...),
		strides: stridesOf(dims),
		data:    make([]float32, n),
	}
}

// Dense32FromDense converts a float64 tensor on ingest, rounding
// every element once.
func Dense32FromDense(t *Dense) *Dense32 {
	out := NewDense32(t.dims...)
	for i, v := range t.data {
		out.data[i] = float32(v)
	}
	return out
}

// Order returns the number of modes N.
func (t *Dense32) Order() int { return len(t.dims) }

// Dims returns a copy of the dimension sizes.
func (t *Dense32) Dims() []int { return append([]int(nil), t.dims...) }

// Dim returns the size of mode k.
func (t *Dense32) Dim(k int) int { return t.dims[k] }

// Elems returns the total number of elements.
func (t *Dense32) Elems() int { return len(t.data) }

// Data returns the underlying column-major float32 storage.
func (t *Dense32) Data() []float32 { return t.data }

// ToDense widens the tensor back to float64 storage.
func (t *Dense32) ToDense() *Dense {
	out := NewDense(t.dims...)
	for i, v := range t.data {
		out.data[i] = float64(v)
	}
	return out
}
