//go:build amd64 && !purego

package simd

// Runtime dispatch for amd64. Feature detection is stdlib-only: two
// assembly helpers (CPUID, XGETBV) and the bit tests below — no x/sys
// dependency. The AVX2 kernel set requires all of:
//
//	CPUID.1:ECX  bit 12 (FMA), bit 27 (OSXSAVE), bit 28 (AVX)
//	XCR0         bits 1–2 (OS saves XMM+YMM state on context switch)
//	CPUID.7.0:EBX bit 5 (AVX2)
//
// OSXSAVE must be checked before XGETBV is executed, and XCR0 must be
// checked even when AVX is advertised: a kernel that does not manage
// YMM state would silently corrupt registers across preemption.

const (
	cpuidFMA     = 1 << 12 // leaf 1 ECX
	cpuidOSXSAVE = 1 << 27 // leaf 1 ECX
	cpuidAVX     = 1 << 28 // leaf 1 ECX
	cpuidAVX2    = 1 << 5  // leaf 7.0 EBX
	xcr0AVXState = 0x6     // XMM (bit 1) + YMM (bit 2)
)

func hasAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const need = cpuidFMA | cpuidOSXSAVE | cpuidAVX
	if ecx1&need != need {
		return false
	}
	if lo, _ := xgetbv0(); lo&xcr0AVXState != xcr0AVXState {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&cpuidAVX2 != 0
}

func init() {
	if !hasAVX2FMA() {
		return
	}
	features = "avx2,fma"
	if noSIMD() {
		return
	}
	bindAVX2()
}

// bindAVX2 points every dispatch variable at the AVX2+FMA kernels.
// The closures trim trailing slices to the destination length so the
// assembly (which trusts the first header) cannot read out of bounds,
// and short inputs fail the same way the scalar kernels do.
func bindAVX2() {
	Axpy4x4 = func(c0, c1, c2, c3, a0, a1, a2, a3 []float64,
		w00, w01, w02, w03,
		w10, w11, w12, w13,
		w20, w21, w22, w23,
		w30, w31, w32, w33 float64) {
		n := len(c0)
		a0, a1, a2, a3 = a0[:n], a1[:n], a2[:n], a3[:n]
		c1, c2, c3 = c1[:n], c2[:n], c3[:n]
		axpy4x4AVX2(c0, c1, c2, c3, a0, a1, a2, a3,
			w00, w01, w02, w03, w10, w11, w12, w13,
			w20, w21, w22, w23, w30, w31, w32, w33)
	}
	Axpy4x1 = func(c0, c1, c2, c3, a []float64, w0, w1, w2, w3 float64) {
		n := len(c0)
		a = a[:n]
		c1, c2, c3 = c1[:n], c2[:n], c3[:n]
		axpy4x1AVX2(c0, c1, c2, c3, a, w0, w1, w2, w3)
	}
	Axpy1x4 = func(c, a0, a1, a2, a3 []float64, w0, w1, w2, w3 float64) {
		n := len(c)
		a0, a1, a2, a3 = a0[:n], a1[:n], a2[:n], a3[:n]
		axpy1x4AVX2(c, a0, a1, a2, a3, w0, w1, w2, w3)
	}
	Axpy = func(c, a []float64, w float64) {
		a = a[:len(c)]
		axpyAVX2(c, a, w)
	}
	Dot = func(x, y []float64) float64 {
		y = y[:len(x)]
		return dotAVX2(x, y)
	}
	Dot4 = func(x, y0, y1, y2, y3 []float64) (s0, s1, s2, s3 float64) {
		n := len(x)
		y0, y1, y2, y3 = y0[:n], y1[:n], y2[:n], y3[:n]
		return dot4AVX2(x, y0, y1, y2, y3)
	}
	Dot2x4 = func(x0, x1, y0, y1, y2, y3 []float64) (s00, s01, s02, s03, s10, s11, s12, s13 float64) {
		n := len(x0)
		x1, y0, y1, y2, y3 = x1[:n], y0[:n], y1[:n], y2[:n], y3[:n]
		return dot2x4AVX2(x0, x1, y0, y1, y2, y3)
	}
	Mul = func(dst, a, b []float64) {
		n := len(dst)
		a, b = a[:n], b[:n]
		mulAVX2(dst, a, b)
	}
	MulAdd = func(dst, a, b []float64) {
		n := len(dst)
		a, b = a[:n], b[:n]
		muladdAVX2(dst, a, b)
	}
	Add = func(dst, a []float64) {
		a = a[:len(dst)]
		addAVX2(dst, a)
	}
	AxpyF32 = func(c []float64, a []float32, w float64) {
		a = a[:len(c)]
		axpyF32AVX2(c, a, w)
	}
	Axpy1x4F32 = func(c []float64, a0, a1, a2, a3 []float32, w0, w1, w2, w3 float64) {
		n := len(c)
		a0, a1, a2, a3 = a0[:n], a1[:n], a2[:n], a3[:n]
		axpy1x4F32AVX2(c, a0, a1, a2, a3, w0, w1, w2, w3)
	}
	DotF32 = func(x []float32, y []float64) float64 {
		y = y[:len(x)]
		return dotF32AVX2(x, y)
	}
	Dot4F32 = func(x []float32, y0, y1, y2, y3 []float64) (s0, s1, s2, s3 float64) {
		n := len(x)
		y0, y1, y2, y3 = y0[:n], y1[:n], y2[:n], y3[:n]
		return dot4F32AVX2(x, y0, y1, y2, y3)
	}
	AxpyRows = func(dst, pk []float64, idx []int32, vals []float64) {
		vals = vals[:len(idx)]
		axpyRowsAVX2(dst, pk, idx, vals)
	}
	AxpyRowsF32 = func(dst, pk []float64, idx []int32, vals []float32) {
		vals = vals[:len(idx)]
		axpyRowsF32AVX2(dst, pk, idx, vals)
	}
	Axpy2Rows = func(o, p, d, pk []float64, idx []int32, vals []float64) {
		p, vals = p[:len(d)], vals[:len(idx)]
		axpy2RowsAVX2(o, p, d, pk, idx, vals)
	}
	Axpy2RowsF32 = func(o, p, d, pk []float64, idx []int32, vals []float32) {
		p, vals = p[:len(d)], vals[:len(idx)]
		axpy2RowsF32AVX2(o, p, d, pk, idx, vals)
	}
	pathName = "avx2"
}
