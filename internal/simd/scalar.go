package simd

// The scalar micro-kernels: the portable dispatch fallback and the
// correctness oracle for the assembly paths. The axpy/dot bodies are
// the register-blocked loops that lived in internal/linalg before the
// dispatch layer existed, retained verbatim (same accumulation
// order), so the scalar path reproduces pre-SIMD results bitwise.

// Axpy4x4Generic is the register-blocked micro-kernel: a 4x4 tile of
// coefficients w applied to four source columns, accumulated into four
// destination columns. All eight slices have equal length.
//
//repro:hotpath
func Axpy4x4Generic(c0, c1, c2, c3, a0, a1, a2, a3 []float64,
	w00, w01, w02, w03,
	w10, w11, w12, w13,
	w20, w21, w22, w23,
	w30, w31, w32, w33 float64) {
	n := len(c0)
	a0, a1, a2, a3 = a0[:n], a1[:n], a2[:n], a3[:n]
	c1, c2, c3 = c1[:n], c2[:n], c3[:n]
	for i := range c0 {
		v0, v1, v2, v3 := a0[i], a1[i], a2[i], a3[i]
		c0[i] += v0*w00 + v1*w01 + v2*w02 + v3*w03
		c1[i] += v0*w10 + v1*w11 + v2*w12 + v3*w13
		c2[i] += v0*w20 + v1*w21 + v2*w22 + v3*w23
		c3[i] += v0*w30 + v1*w31 + v2*w32 + v3*w33
	}
}

// Axpy4x1Generic accumulates one source column into four destinations.
//
//repro:hotpath
func Axpy4x1Generic(c0, c1, c2, c3, a []float64, w0, w1, w2, w3 float64) {
	n := len(c0)
	a = a[:n]
	c1, c2, c3 = c1[:n], c2[:n], c3[:n]
	for i, v := range a {
		c0[i] += v * w0
		c1[i] += v * w1
		c2[i] += v * w2
		c3[i] += v * w3
	}
}

// Axpy1x4Generic accumulates four source columns into one destination.
//
//repro:hotpath
func Axpy1x4Generic(c, a0, a1, a2, a3 []float64, w0, w1, w2, w3 float64) {
	n := len(c)
	a0, a1, a2, a3 = a0[:n], a1[:n], a2[:n], a3[:n]
	for i := range c {
		c[i] += a0[i]*w0 + a1[i]*w1 + a2[i]*w2 + a3[i]*w3
	}
}

// AxpyGeneric accumulates c += a * w.
//
//repro:hotpath
func AxpyGeneric(c, a []float64, w float64) {
	a = a[:len(c)]
	for i := range c {
		c[i] += a[i] * w
	}
}

// DotGeneric is a four-accumulator dot product. The unrolled body
// reduces as (s0+s1)+(s2+s3) and the tail then folds into the reduced
// sum — the same accumulator order as the vector kernels, which
// reduce their lane accumulators before the scalar tail.
//
//repro:hotpath
func DotGeneric(x, y []float64) float64 {
	y = y[:len(x)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(x); i += 4 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < len(x); i++ {
		s += x[i] * y[i]
	}
	return s
}

// Dot4Generic computes four dot products sharing one x stream.
//
//repro:hotpath
func Dot4Generic(x, y0, y1, y2, y3 []float64) (s0, s1, s2, s3 float64) {
	n := len(x)
	y0, y1, y2, y3 = y0[:n], y1[:n], y2[:n], y3[:n]
	for i, v := range x {
		s0 += v * y0[i]
		s1 += v * y1[i]
		s2 += v * y2[i]
		s3 += v * y3[i]
	}
	return
}

// Dot2x4Generic computes the 2x4 tile of dots s_ij = <x_i, y_j>: two
// Dot4Generic calls, which is the per-output arithmetic every
// Dot2x4 binding reproduces bitwise.
//
//repro:hotpath
func Dot2x4Generic(x0, x1, y0, y1, y2, y3 []float64) (s00, s01, s02, s03, s10, s11, s12, s13 float64) {
	x1 = x1[:len(x0)]
	s00, s01, s02, s03 = Dot4Generic(x0, y0, y1, y2, y3)
	s10, s11, s12, s13 = Dot4Generic(x1, y0, y1, y2, y3)
	return
}

// MulGeneric writes the elementwise product dst = a ⊙ b (the CSF
// prefix-Hadamard step).
//
//repro:hotpath
func MulGeneric(dst, a, b []float64) {
	n := len(dst)
	a, b = a[:n], b[:n]
	for i := range dst {
		dst[i] = a[i] * b[i]
	}
}

// MulAddGeneric accumulates the elementwise product dst += a ⊙ b (the
// CSF row update).
//
//repro:hotpath
func MulAddGeneric(dst, a, b []float64) {
	n := len(dst)
	a, b = a[:n], b[:n]
	for i := range dst {
		dst[i] += a[i] * b[i]
	}
}

// AddGeneric accumulates dst += a.
//
//repro:hotpath
func AddGeneric(dst, a []float64) {
	a = a[:len(dst)]
	for i := range dst {
		dst[i] += a[i]
	}
}

// AxpyF32Generic accumulates c += a * w with a float32 source stream
// and float64 accumulation.
//
//repro:hotpath
func AxpyF32Generic(c []float64, a []float32, w float64) {
	a = a[:len(c)]
	for i := range c {
		c[i] += float64(a[i]) * w
	}
}

// Axpy1x4F32Generic accumulates four float32 source columns into one
// float64 destination.
//
//repro:hotpath
func Axpy1x4F32Generic(c []float64, a0, a1, a2, a3 []float32, w0, w1, w2, w3 float64) {
	n := len(c)
	a0, a1, a2, a3 = a0[:n], a1[:n], a2[:n], a3[:n]
	for i := range c {
		c[i] += float64(a0[i])*w0 + float64(a1[i])*w1 + float64(a2[i])*w2 + float64(a3[i])*w3
	}
}

// DotF32Generic is the mixed-precision dot: float32 x stream, float64
// y stream, float64 accumulators, same reduction order as DotGeneric.
//
//repro:hotpath
func DotF32Generic(x []float32, y []float64) float64 {
	y = y[:len(x)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(x); i += 4 {
		s0 += float64(x[i]) * y[i]
		s1 += float64(x[i+1]) * y[i+1]
		s2 += float64(x[i+2]) * y[i+2]
		s3 += float64(x[i+3]) * y[i+3]
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < len(x); i++ {
		s += float64(x[i]) * y[i]
	}
	return s
}

// Dot4F32Generic computes four mixed-precision dots sharing one
// float32 x stream.
//
//repro:hotpath
func Dot4F32Generic(x []float32, y0, y1, y2, y3 []float64) (s0, s1, s2, s3 float64) {
	n := len(x)
	y0, y1, y2, y3 = y0[:n], y1[:n], y2[:n], y3[:n]
	for i, v := range x {
		vf := float64(v)
		s0 += vf * y0[i]
		s1 += vf * y1[i]
		s2 += vf * y2[i]
		s3 += vf * y3[i]
	}
	return
}

// AxpyRowsGeneric is the batched CSF leaf fold: for every leaf c it
// gathers row idx[c] of the row-major packed factor pk (R = len(dst)
// words per row) and accumulates dst += vals[c] * row. One call per
// fiber replaces one Axpy call per leaf, so the per-call overhead
// amortizes over the whole fiber. The caller guarantees every
// idx[c]*R+R <= len(pk); idx and vals have equal length.
//
//repro:hotpath
func AxpyRowsGeneric(dst, pk []float64, idx []int32, vals []float64) {
	R := len(dst)
	vals = vals[:len(idx)]
	for c, ix := range idx {
		row := pk[int(ix)*R : int(ix)*R+R]
		w := vals[c]
		for r := range dst {
			dst[r] += w * row[r]
		}
	}
}

// AxpyRowsF32Generic is AxpyRowsGeneric over a float32 value stream:
// each leaf value widens exactly to float64 before the multiply, so
// the accumulation arithmetic is identical to the float64 variant fed
// the re-rounded stream.
//
//repro:hotpath
func AxpyRowsF32Generic(dst, pk []float64, idx []int32, vals []float32) {
	R := len(dst)
	vals = vals[:len(idx)]
	for c, ix := range idx {
		row := pk[int(ix)*R : int(ix)*R+R]
		w := float64(vals[c])
		for r := range dst {
			dst[r] += w * row[r]
		}
	}
}

// Axpy2RowsGeneric is the fused CSF all-modes leaf fold over one
// fiber: for every leaf c in order, with R = len(d) and j =
// idx[c]*R, it accumulates o[j:j+R] += p * vals[c] (the leaf-mode
// output row, as AxpyGeneric does) and d += vals[c] * pk[j:j+R] (the
// subtree sum, as AxpyRowsGeneric does). The caller guarantees every
// idx[c]*R+R <= len(o) and len(pk), and that o overlaps none of p, d
// and pk; idx and vals have equal length.
//
//repro:hotpath
func Axpy2RowsGeneric(o, p, d, pk []float64, idx []int32, vals []float64) {
	R := len(d)
	p = p[:R]
	vals = vals[:len(idx)]
	for c, ix := range idx {
		j := int(ix) * R
		orow, row := o[j:j+R], pk[j:j+R]
		w := vals[c]
		for r := range d {
			orow[r] += p[r] * w
			d[r] += w * row[r]
		}
	}
}

// Axpy2RowsF32Generic is Axpy2RowsGeneric over a float32 value
// stream: each leaf value widens exactly to float64 first, so the
// arithmetic is the float64 variant's fed the re-rounded stream.
//
//repro:hotpath
func Axpy2RowsF32Generic(o, p, d, pk []float64, idx []int32, vals []float32) {
	R := len(d)
	p = p[:R]
	vals = vals[:len(idx)]
	for c, ix := range idx {
		j := int(ix) * R
		orow, row := o[j:j+R], pk[j:j+R]
		w := float64(vals[c])
		for r := range d {
			orow[r] += p[r] * w
			d[r] += w * row[r]
		}
	}
}
