package linalg

// Mixed-precision GEMM variants for the float32 storage path: the
// large streamed operand A is float32 (the tensor), B and C stay
// float64 (KRP panels and accumulators). Accumulation is entirely in
// float64 — the only rounding the path adds is the one on ingest and
// the one on the final float32 store, per the accumulation rules in
// DESIGN.md §10. Each records the same obs.Gemm traffic as its
// float64 twin, so the word traffic per the paper's model is unchanged
// in count and halved in bytes on the A stream. (Gemm32TN keeps the
// one-row Dot4F32 loop: the 2x4 dot tile and A-column blocking of
// GemmTN have no float32 counterpart yet.)

import (
	"repro/internal/obs"
	"repro/internal/simd"
)

// Gemm32NN computes C = A * B with a float32 A: A is m x k float32, B
// is k x n float64, C is m x n float64, overwritten. workers <= 0
// uses the package default.
//
//repro:hotpath
func Gemm32NN(c []float64, a []float32, b []float64, m, k, n, workers int) {
	checkLen("Gemm32NN", len(c), m*n)
	checkLen("Gemm32NN", len(a), m*k)
	checkLen("Gemm32NN", len(b), k*n)
	obs.Gemm(m, k, n)
	w := ResolveWorkers(workers)
	if m*n*k <= gemmSmall {
		w = 1
	}
	if w == 1 {
		gemm32NN(c, a, b, m, k, 0, n)
		return
	}
	parallelGemm(nn32Cols, c, nil, b, a, m, k, n, n, w)
}

// gemm32NN fills C columns [j0,j1), cache-blocked over the
// contraction like gemmNN; the register kernel is the four-source
// float32 axpy.
func gemm32NN(c []float64, a []float32, b []float64, m, k, j0, j1 int) {
	for j := j0; j < j1; j++ {
		clear(c[j*m : (j+1)*m])
	}
	for l0 := 0; l0 < k; l0 += gemmBlock {
		l1 := min(l0+gemmBlock, k)
		for j := j0; j < j1; j++ {
			cj := c[j*m : (j+1)*m]
			bj := b[j*k : j*k+k]
			l := l0
			for ; l+4 <= l1; l += 4 {
				a0 := a[(l+0)*m : (l+1)*m]
				a1 := a[(l+1)*m : (l+2)*m]
				a2 := a[(l+2)*m : (l+3)*m]
				a3 := a[(l+3)*m : (l+4)*m]
				simd.Axpy1x4F32(cj, a0, a1, a2, a3, bj[l], bj[l+1], bj[l+2], bj[l+3])
			}
			for ; l < l1; l++ {
				simd.AxpyF32(cj, a[l*m:(l+1)*m], bj[l])
			}
		}
	}
}

// Gemm32TN computes C = A^T * B with a float32 A: A is m x ka
// float32, B is m x n float64, C is ka x n float64, overwritten.
// workers <= 0 uses the package default.
//
//repro:hotpath
func Gemm32TN(c []float64, a []float32, b []float64, m, ka, n, workers int) {
	checkLen("Gemm32TN", len(c), ka*n)
	checkLen("Gemm32TN", len(a), m*ka)
	checkLen("Gemm32TN", len(b), m*n)
	obs.Gemm(ka, m, n)
	w := ResolveWorkers(workers)
	if m*ka*n <= gemmSmall {
		w = 1
	}
	if w == 1 {
		gemm32TN(c, a, b, m, ka, n, 0, ka)
		return
	}
	parallelGemm(tn32Rows, c, nil, b, a, m, ka, n, ka, w)
}

// gemm32TN fills C rows [i0,i1): C(i,j) = <A(:,i), B(:,j)> with the
// float32 column streamed once per four outputs.
func gemm32TN(c []float64, a []float32, b []float64, m, ka, n, i0, i1 int) {
	j := 0
	for ; j+4 <= n; j += 4 {
		b0 := b[(j+0)*m : (j+0)*m+m]
		b1 := b[(j+1)*m : (j+1)*m+m]
		b2 := b[(j+2)*m : (j+2)*m+m]
		b3 := b[(j+3)*m : (j+3)*m+m]
		for i := i0; i < i1; i++ {
			ai := a[i*m : i*m+m]
			s0, s1, s2, s3 := simd.Dot4F32(ai, b0, b1, b2, b3)
			c[i+(j+0)*ka] = s0
			c[i+(j+1)*ka] = s1
			c[i+(j+2)*ka] = s2
			c[i+(j+3)*ka] = s3
		}
	}
	for ; j < n; j++ {
		bj := b[j*m : j*m+m]
		for i := i0; i < i1; i++ {
			c[i+j*ka] = simd.DotF32(a[i*m:i*m+m], bj)
		}
	}
}
