//go:build amd64 && !purego

package simd

// Assembly stubs (kernels_amd64.s). Each asm body takes its length
// from the first destination (or x) slice header; the bind shims in
// dispatch_amd64.go trim every other slice to that length first, so
// short inputs panic at the trim exactly like the scalar kernels and
// the asm never reads out of bounds.

//go:noescape
func axpyAVX2(c, a []float64, w float64)

//go:noescape
func axpy4x1AVX2(c0, c1, c2, c3, a []float64, w0, w1, w2, w3 float64)

//go:noescape
func axpy1x4AVX2(c, a0, a1, a2, a3 []float64, w0, w1, w2, w3 float64)

//go:noescape
func axpy4x4AVX2(c0, c1, c2, c3, a0, a1, a2, a3 []float64,
	w00, w01, w02, w03,
	w10, w11, w12, w13,
	w20, w21, w22, w23,
	w30, w31, w32, w33 float64)

//go:noescape
func dotAVX2(x, y []float64) float64

//go:noescape
func dot4AVX2(x, y0, y1, y2, y3 []float64) (s0, s1, s2, s3 float64)

//go:noescape
func dot2x4AVX2(x0, x1, y0, y1, y2, y3 []float64) (s00, s01, s02, s03, s10, s11, s12, s13 float64)

//go:noescape
func mulAVX2(dst, a, b []float64)

//go:noescape
func muladdAVX2(dst, a, b []float64)

//go:noescape
func addAVX2(dst, a []float64)

//go:noescape
func axpyF32AVX2(c []float64, a []float32, w float64)

//go:noescape
func axpy1x4F32AVX2(c []float64, a0, a1, a2, a3 []float32, w0, w1, w2, w3 float64)

//go:noescape
func dotF32AVX2(x []float32, y []float64) float64

//go:noescape
func dot4F32AVX2(x []float32, y0, y1, y2, y3 []float64) (s0, s1, s2, s3 float64)

//go:noescape
func axpyRowsAVX2(dst, pk []float64, idx []int32, vals []float64)

//go:noescape
func axpyRowsF32AVX2(dst, pk []float64, idx []int32, vals []float32)

//go:noescape
func axpy2RowsAVX2(o, p, d, pk []float64, idx []int32, vals []float64)

//go:noescape
func axpy2RowsF32AVX2(o, p, d, pk []float64, idx []int32, vals []float32)

// The 512-bit tiles (tiles_amd64.s), bound only on the avx512 level.
// They read and write through explicit strides; the shims check the
// last index of every operand first.

//go:noescape
func dot3x16AVX512(c []float64, ldc int, a []float64, lda int, b []float64, ldb, m int)

//go:noescape
func gemm16x8AVX512(c []float64, ldc int, a []float64, lda int, b []float64, bj, bl, k int)

//go:noescape
func dot6x8AVX512(c []float64, ldc int, a []float64, lda int, b []float64, ldb, m int)

// cpuid executes CPUID with the given leaf/subleaf (cpuid_amd64.s).
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0, the OS-enabled extended-state mask.
func xgetbv0() (eax, edx uint32)
