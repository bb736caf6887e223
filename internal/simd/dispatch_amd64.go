//go:build amd64 && !purego

package simd

import "math"

// Runtime dispatch for amd64. Feature detection is stdlib-only: two
// assembly helpers (CPUID, XGETBV) and the bit tests below — no x/sys
// dependency. The AVX2 kernel set requires all of:
//
//	CPUID.1:ECX  bit 12 (FMA), bit 27 (OSXSAVE), bit 28 (AVX)
//	XCR0         bits 1–2 (OS saves XMM+YMM state on context switch)
//	CPUID.7.0:EBX bit 5 (AVX2)
//
// The avx512 tile level needs all of that and also:
//
//	CPUID.7.0:EBX bit 16 (AVX512F)
//	XCR0         bits 5–7 (OS saves the opmask, ZMM_Hi256 and
//	             Hi16_ZMM state)
//
// OSXSAVE must be checked before XGETBV is executed, and XCR0 must be
// checked even when AVX or AVX512F is advertised: a kernel that uses
// registers the OS does not save would silently corrupt them across
// preemption.

const (
	cpuidFMA     = 1 << 12 // leaf 1 ECX
	cpuidOSXSAVE = 1 << 27 // leaf 1 ECX
	cpuidAVX     = 1 << 28 // leaf 1 ECX
	cpuidAVX2    = 1 << 5  // leaf 7.0 EBX
	cpuidAVX512F = 1 << 16 // leaf 7.0 EBX
	xcr0AVXState = 0x6     // XMM (bit 1) + YMM (bit 2)
	xcr0ZMMState = 0xe0    // opmask (bit 5) + ZMM_Hi256 (bit 6) + Hi16_ZMM (bit 7)
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

// hasAVX512F reports the avx512 tile level's CPUID bit and OS state;
// callers have already checked hasAVX2FMA (and with it OSXSAVE).
func hasAVX512F() bool {
	if lo, _ := xgetbv0(); lo&xcr0ZMMState != xcr0ZMMState {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&cpuidAVX512F != 0
}

func init() {
	if !hasAVX2FMA() {
		return
	}
	features = "avx2,fma"
	avx512 := hasAVX512F()
	if avx512 {
		features += ",avx512f"
	}
	if noSIMD() {
		return
	}
	bindAVX2()
	if avx512 {
		bindAVX512()
	}
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

// bindAVX512 binds the 512-bit register tiles on top of the AVX2 set.
// The shims reject negative strides and index the last element each
// operand is read or written at, so a short slice panics here, before
// the assembly runs. The dot tiles' assembly stops at the last whole
// 4-row step; the shims fold the scalar tail into each output as
// dot4AVX2 does, one FMA per row in ascending order. Each shim checks
// its own tile's extents at constant offsets: a check and tail fold
// shared by both tiles, taking the tile's shape as arguments, cost
// tucker-hooi's leading-mode GemmTN (on Dot3x16) 4-6% of its GFLOP/s
// (E45). Dot6x8's shim calls its fold only when there is a tail, which
// keeps the fold's loop out of the whole-step path.
func bindAVX512() {
	Gemm16x8 = func(c []float64, ldc int, a []float64, lda int, b []float64, bj, bl, k int) {
		if ldc < 0 || lda < 0 || bj < 0 || bl < 0 {
			panic("simd: Gemm16x8 with a negative stride")
		}
		_ = c[7*ldc+15]
		if k > 0 {
			_ = a[(k-1)*lda+15]
			_ = b[7*bj+(k-1)*bl]
		}
		gemm16x8AVX512(c, ldc, a, lda, b, bj, bl, k)
	}
	Dot3x16 = func(c []float64, ldc int, a []float64, lda int, b []float64, ldb, m int) {
		if ldc < 0 || lda < 0 || ldb < 0 || m < 0 {
			panic("simd: Dot3x16 with a negative stride or length")
		}
		_ = c[15*ldc+2]
		if m > 0 {
			_ = a[2*lda+m-1]
			_ = b[15*ldb+m-1]
		}
		m4 := m &^ 3
		dot3x16AVX512(c, ldc, a, lda, b, ldb, m4)
		for t := m4; t < m; t++ {
			a0, a1, a2 := a[t], a[lda+t], a[2*lda+t]
			for j := 0; j < 16; j++ {
				bv, cj := b[j*ldb+t], c[j*ldc:j*ldc+3]
				cj[0] = math.FMA(a0, bv, cj[0])
				cj[1] = math.FMA(a1, bv, cj[1])
				cj[2] = math.FMA(a2, bv, cj[2])
			}
		}
	}
	Dot6x8 = func(c []float64, ldc int, a []float64, lda int, b []float64, ldb, m int) {
		if ldc < 0 || lda < 0 || ldb < 0 || m < 0 {
			panic("simd: Dot6x8 with a negative stride or length")
		}
		_ = c[7*ldc+5]
		if m > 0 {
			_ = a[5*lda+m-1]
			_ = b[7*ldb+m-1]
		}
		m4 := m &^ 3
		dot6x8AVX512(c, ldc, a, lda, b, ldb, m4)
		if m4 < m {
			dot6x8Tail(c, ldc, a, lda, b, ldb, m4, m)
		}
	}
	tilesName = "avx512"
}

// dot6x8Tail folds rows [m4, m) of a 6x8 dot tile into C, one FMA per
// row in ascending order, as dot4AVX2's scalar tail does.
func dot6x8Tail(c []float64, ldc int, a []float64, lda int, b []float64, ldb, m4, m int) {
	for t := m4; t < m; t++ {
		for j := 0; j < 8; j++ {
			bv, cj := b[j*ldb+t], c[j*ldc:j*ldc+6]
			for i := range cj {
				cj[i] = math.FMA(a[i*lda+t], bv, cj[i])
			}
		}
	}
}
