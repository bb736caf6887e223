//go:build arm64 && !purego

package simd

// Dispatch for arm64. AdvSIMD (NEON) is an architectural requirement
// of AArch64, so there is nothing to detect — the float64 kernel set
// binds unconditionally unless REPRO_NOSIMD=1 (or the purego tag)
// holds it back. The float32-operand table stays on the scalar
// generics: the Go assembler has no vector float32→float64 widening
// (FCVTL), and the mixed-precision kernels are dominated by the
// float64 accumulate anyway. The one exception is Axpy2RowsF32, which
// widens each leaf value in Go and runs the float64 NEON axpy2.

func init() {
	features = "neon"
	if noSIMD() {
		return
	}
	bindNEON()
}

func bindNEON() {
	Axpy4x4 = func(c0, c1, c2, c3, a0, a1, a2, a3 []float64,
		w00, w01, w02, w03,
		w10, w11, w12, w13,
		w20, w21, w22, w23,
		w30, w31, w32, w33 float64) {
		n := len(c0)
		a0, a1, a2, a3 = a0[:n], a1[:n], a2[:n], a3[:n]
		c1, c2, c3 = c1[:n], c2[:n], c3[:n]
		axpy4x4NEON(c0, c1, c2, c3, a0, a1, a2, a3,
			w00, w01, w02, w03, w10, w11, w12, w13,
			w20, w21, w22, w23, w30, w31, w32, w33)
	}
	Axpy4x1 = func(c0, c1, c2, c3, a []float64, w0, w1, w2, w3 float64) {
		n := len(c0)
		a = a[:n]
		c1, c2, c3 = c1[:n], c2[:n], c3[:n]
		axpy4x1NEON(c0, c1, c2, c3, a, w0, w1, w2, w3)
	}
	Axpy1x4 = func(c, a0, a1, a2, a3 []float64, w0, w1, w2, w3 float64) {
		n := len(c)
		a0, a1, a2, a3 = a0[:n], a1[:n], a2[:n], a3[:n]
		axpy1x4NEON(c, a0, a1, a2, a3, w0, w1, w2, w3)
	}
	Axpy = func(c, a []float64, w float64) {
		a = a[:len(c)]
		axpyNEON(c, a, w)
	}
	Dot = func(x, y []float64) float64 {
		y = y[:len(x)]
		return dotNEON(x, y)
	}
	Dot4 = func(x, y0, y1, y2, y3 []float64) (s0, s1, s2, s3 float64) {
		n := len(x)
		y0, y1, y2, y3 = y0[:n], y1[:n], y2[:n], y3[:n]
		return dot4NEON(x, y0, y1, y2, y3)
	}
	// The 2x4 dot tile binds to two NEON Dot4 passes: bitwise what
	// two Dot4 calls return, which is the Dot2x4 contract.
	Dot2x4 = func(x0, x1, y0, y1, y2, y3 []float64) (s00, s01, s02, s03, s10, s11, s12, s13 float64) {
		n := len(x0)
		x1, y0, y1, y2, y3 = x1[:n], y0[:n], y1[:n], y2[:n], y3[:n]
		s00, s01, s02, s03 = dot4NEON(x0, y0, y1, y2, y3)
		s10, s11, s12, s13 = dot4NEON(x1, y0, y1, y2, y3)
		return
	}
	Mul = func(dst, a, b []float64) {
		n := len(dst)
		a, b = a[:n], b[:n]
		mulNEON(dst, a, b)
	}
	MulAdd = func(dst, a, b []float64) {
		n := len(dst)
		a, b = a[:n], b[:n]
		muladdNEON(dst, a, b)
	}
	Add = func(dst, a []float64) {
		a = a[:len(dst)]
		addNEON(dst, a)
	}
	// The batched leaf fold binds to a Go loop over the NEON axpy:
	// the win over the generic is the vector inner loop, and a
	// hand-batched NEON kernel can come later without an API change.
	// AxpyRowsF32 stays on the scalar generic with the rest of the
	// float32 table (no vector widening in the Go assembler).
	AxpyRows = func(dst, pk []float64, idx []int32, vals []float64) {
		R := len(dst)
		vals = vals[:len(idx)]
		for c, ix := range idx {
			axpyNEON(dst, pk[int(ix)*R:int(ix)*R+R], vals[c])
		}
	}
	// The all-modes leaf folds bind the same way, one NEON axpy2
	// per leaf; the float32 twin widens each value first, so it
	// computes what the per-leaf axpy2 on the widened value did.
	Axpy2Rows = func(o, p, d, pk []float64, idx []int32, vals []float64) {
		R := len(d)
		p, vals = p[:R], vals[:len(idx)]
		for c, ix := range idx {
			j := int(ix) * R
			axpy2NEON(o[j:j+R], p, d, pk[j:j+R], vals[c])
		}
	}
	Axpy2RowsF32 = func(o, p, d, pk []float64, idx []int32, vals []float32) {
		R := len(d)
		p, vals = p[:R], vals[:len(idx)]
		for c, ix := range idx {
			j := int(ix) * R
			axpy2NEON(o[j:j+R], p, d, pk[j:j+R], float64(vals[c]))
		}
	}
	pathName = "neon"
}
