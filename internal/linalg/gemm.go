package linalg

// The dense GEMM execution engine: cache-blocked, register-blocked,
// goroutine-parallel matrix kernels operating on raw column-major
// slices. These are the flop-carrying substrate under the paper's cost
// models — the communication-oblivious "do the arithmetic as fast as
// the hardware allows" layer, blocked per the discipline of Ballard et
// al., "Minimizing Communication in Numerical Linear Algebra": the
// innermost kernel updates a 4x4 register tile, the middle loops keep
// an MC x KC panel of A resident in cache, and the outer loop hands
// disjoint column (or row) panels of C to worker goroutines.
//
// Three data orders cover every multiply in the repository:
//
//	GemmNN: C = A * B     (via-matmul baseline, mode-0 MTTKRP)
//	GemmTN: C = A^T * B   (Gram matrices, last-mode and interior MTTKRP)
//	GemmNT: C = A * B^T   (unfolding Grams in Tucker/HOSVD)
//
// All kernels overwrite C and tolerate m, n, k of 1 (factor matrices
// are tall and skinny; degenerate extents appear in distributed local
// blocks).

import (
	"runtime"
	"sync"

	"repro/internal/obs"
	"repro/internal/simd"
)

// gemmBlock is the KC and MC cache-blocking extent: the A panel held
// hot across a column sweep is gemmBlock x gemmBlock words (512 KiB at
// 8 bytes/word, sized for a typical L2). It is a constant, so the
// summation order — and every result — is fixed by the shape alone.
const gemmBlock = 256

// gemmSmall is the flop threshold below which spawning goroutines
// costs more than it saves; such products run inline.
const gemmSmall = 1 << 15

// BlockSizes reports the GEMM cache-blocking extents (KC, MC).
func BlockSizes() (kc, mc int) { return gemmBlock, gemmBlock }

// Workers reports the default worker count: GOMAXPROCS.
func Workers() int { return runtime.GOMAXPROCS(0) }

// ResolveWorkers maps a per-call workers argument to an effective
// count: values <= 0 select Workers().
func ResolveWorkers(workers int) int {
	if workers > 0 {
		return workers
	}
	return Workers()
}

// parallelChunks splits [0, total) into at most `workers` contiguous
// chunks and runs fn on each concurrently. workers must already be
// resolved; workers == 1 runs inline.
//
//repro:ignore hotpath-alloc goroutine fan-out primitive: allocates bookkeeping only on the parallel path
func parallelChunks(total, workers int, fn func(lo, hi int)) {
	if workers > total {
		workers = total
	}
	if workers <= 1 {
		fn(0, total)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		lo := w * total / workers
		hi := (w + 1) * total / workers
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// GemmNN computes C = A * B on column-major slices: A is m x k, B is
// k x n, C is m x n, overwritten. workers <= 0 uses the package
// default.
//
//repro:hotpath
func GemmNN(c, a, b []float64, m, k, n, workers int) {
	checkLen("GemmNN", len(c), m*n)
	checkLen("GemmNN", len(a), m*k)
	checkLen("GemmNN", len(b), k*n)
	obs.Gemm(m, k, n)
	w := ResolveWorkers(workers)
	if m*n*k <= gemmSmall {
		w = 1
	}
	if w == 1 {
		gemmNN(c, a, b, m, k, 0, m, 0, n)
		return
	}
	// Prefer disjoint column panels; fall back to row panels when C is
	// wide in rows but narrow in columns (e.g. GEMM against a rank-R
	// Khatri-Rao product with small R).
	if n >= 2*w {
		//repro:ignore hotpath-alloc sanctioned fan-out closure: bookkeeping only on the parallel path
		parallelChunks(n, w, func(j0, j1 int) {
			gemmNN(c, a, b, m, k, 0, m, j0, j1)
		})
	} else {
		//repro:ignore hotpath-alloc sanctioned fan-out closure: bookkeeping only on the parallel path
		parallelChunks(m, w, func(i0, i1 int) {
			gemmNN(c, a, b, m, k, i0, i1, 0, n)
		})
	}
}

// gemmNN computes the C block rows [i0,i1) x columns [j0,j1).
func gemmNN(c, a, b []float64, m, k, i0, i1, j0, j1 int) {
	for j := j0; j < j1; j++ {
		cj := c[j*m : (j+1)*m]
		for i := i0; i < i1; i++ {
			cj[i] = 0
		}
	}
	for l0 := 0; l0 < k; l0 += gemmBlock {
		l1 := min(l0+gemmBlock, k)
		for ib := i0; ib < i1; ib += gemmBlock {
			ie := min(ib+gemmBlock, i1)
			gemmNNBlock(c, a, b, m, k, l0, l1, ib, ie, j0, j1)
		}
	}
}

// gemmNNBlock accumulates A(ib:ie, l0:l1) * B(l0:l1, j0:j1) into C.
// The coefficient tile is read from B columns directly.
func gemmNNBlock(c, a, b []float64, m, k, l0, l1, ib, ie, j0, j1 int) {
	j := j0
	for ; j+4 <= j1; j += 4 {
		c0 := c[(j+0)*m+ib : (j+0)*m+ie]
		c1 := c[(j+1)*m+ib : (j+1)*m+ie]
		c2 := c[(j+2)*m+ib : (j+2)*m+ie]
		c3 := c[(j+3)*m+ib : (j+3)*m+ie]
		b0 := b[(j+0)*k : (j+0)*k+k]
		b1 := b[(j+1)*k : (j+1)*k+k]
		b2 := b[(j+2)*k : (j+2)*k+k]
		b3 := b[(j+3)*k : (j+3)*k+k]
		l := l0
		for ; l+4 <= l1; l += 4 {
			a0 := a[(l+0)*m+ib : (l+0)*m+ie]
			a1 := a[(l+1)*m+ib : (l+1)*m+ie]
			a2 := a[(l+2)*m+ib : (l+2)*m+ie]
			a3 := a[(l+3)*m+ib : (l+3)*m+ie]
			axpy4x4(c0, c1, c2, c3, a0, a1, a2, a3,
				b0[l], b0[l+1], b0[l+2], b0[l+3],
				b1[l], b1[l+1], b1[l+2], b1[l+3],
				b2[l], b2[l+1], b2[l+2], b2[l+3],
				b3[l], b3[l+1], b3[l+2], b3[l+3])
		}
		for ; l < l1; l++ {
			al := a[l*m+ib : l*m+ie]
			axpy4x1(c0, c1, c2, c3, al, b0[l], b1[l], b2[l], b3[l])
		}
	}
	for ; j < j1; j++ {
		cj := c[j*m+ib : j*m+ie]
		bj := b[j*k : j*k+k]
		l := l0
		for ; l+4 <= l1; l += 4 {
			a0 := a[(l+0)*m+ib : (l+0)*m+ie]
			a1 := a[(l+1)*m+ib : (l+1)*m+ie]
			a2 := a[(l+2)*m+ib : (l+2)*m+ie]
			a3 := a[(l+3)*m+ib : (l+3)*m+ie]
			axpy1x4(cj, a0, a1, a2, a3, bj[l], bj[l+1], bj[l+2], bj[l+3])
		}
		for ; l < l1; l++ {
			axpy(cj, a[l*m+ib:l*m+ie], bj[l])
		}
	}
}

// GemmTN computes C = A^T * B on column-major slices: A is m x ka, B
// is m x n, C is ka x n, overwritten. The contraction runs down the
// shared (contiguous) row dimension, so both operands stream in unit
// stride. workers <= 0 uses the package default.
//
//repro:hotpath
func GemmTN(c, a, b []float64, m, ka, n, workers int) {
	checkLen("GemmTN", len(c), ka*n)
	checkLen("GemmTN", len(a), m*ka)
	checkLen("GemmTN", len(b), m*n)
	obs.Gemm(ka, m, n)
	w := ResolveWorkers(workers)
	if m*ka*n <= gemmSmall {
		w = 1
	}
	if w == 1 {
		gemmTN(c, a, b, m, ka, n, 0, ka)
		return
	}
	// Rows of C are columns of A: each worker owns a disjoint row
	// range and streams its A columns exactly once.
	//repro:ignore hotpath-alloc sanctioned fan-out closure: bookkeeping only on the parallel path
	parallelChunks(ka, w, func(i0, i1 int) {
		gemmTN(c, a, b, m, ka, n, i0, i1)
	})
}

// gemmTN fills C rows [i0,i1): C(i,j) = <A(:,i), B(:,j)>. Four B
// columns are processed per pass so each A column is read once per
// quadruple, and the four dot products share its stream.
func gemmTN(c, a, b []float64, m, ka, n, i0, i1 int) {
	j := 0
	for ; j+4 <= n; j += 4 {
		b0 := b[(j+0)*m : (j+0)*m+m]
		b1 := b[(j+1)*m : (j+1)*m+m]
		b2 := b[(j+2)*m : (j+2)*m+m]
		b3 := b[(j+3)*m : (j+3)*m+m]
		for i := i0; i < i1; i++ {
			ai := a[i*m : i*m+m]
			s0, s1, s2, s3 := simd.Dot4(ai, b0, b1, b2, b3)
			c[i+(j+0)*ka] = s0
			c[i+(j+1)*ka] = s1
			c[i+(j+2)*ka] = s2
			c[i+(j+3)*ka] = s3
		}
	}
	for ; j < n; j++ {
		bj := b[j*m : j*m+m]
		for i := i0; i < i1; i++ {
			c[i+j*ka] = dotUnroll(a[i*m:i*m+m], bj)
		}
	}
}

// GemmNT computes C = A * B^T on column-major slices: A is m x k, B is
// nb x k, C is m x nb, overwritten. workers <= 0 uses the package
// default.
//
//repro:hotpath
func GemmNT(c, a, b []float64, m, k, nb, workers int) {
	checkLen("GemmNT", len(c), m*nb)
	checkLen("GemmNT", len(a), m*k)
	checkLen("GemmNT", len(b), nb*k)
	obs.Gemm(m, k, nb)
	w := ResolveWorkers(workers)
	if m*k*nb <= gemmSmall {
		w = 1
	}
	if w == 1 {
		gemmNT(c, a, b, m, k, nb, 0, nb)
		return
	}
	//repro:ignore hotpath-alloc sanctioned fan-out closure: bookkeeping only on the parallel path
	parallelChunks(nb, w, func(j0, j1 int) {
		gemmNT(c, a, b, m, k, nb, j0, j1)
	})
}

// gemmNT computes C columns [j0,j1); the coefficient tile comes from
// rows of B (stride nb).
func gemmNT(c, a, b []float64, m, k, nb, j0, j1 int) {
	for j := j0; j < j1; j++ {
		cj := c[j*m : (j+1)*m]
		for i := range cj {
			cj[i] = 0
		}
	}
	for l0 := 0; l0 < k; l0 += gemmBlock {
		l1 := min(l0+gemmBlock, k)
		for ib := 0; ib < m; ib += gemmBlock {
			ie := min(ib+gemmBlock, m)
			gemmNTBlock(c, a, b, m, nb, l0, l1, ib, ie, j0, j1)
		}
	}
}

func gemmNTBlock(c, a, b []float64, m, nb, l0, l1, ib, ie, j0, j1 int) {
	j := j0
	for ; j+4 <= j1; j += 4 {
		c0 := c[(j+0)*m+ib : (j+0)*m+ie]
		c1 := c[(j+1)*m+ib : (j+1)*m+ie]
		c2 := c[(j+2)*m+ib : (j+2)*m+ie]
		c3 := c[(j+3)*m+ib : (j+3)*m+ie]
		l := l0
		for ; l+4 <= l1; l += 4 {
			a0 := a[(l+0)*m+ib : (l+0)*m+ie]
			a1 := a[(l+1)*m+ib : (l+1)*m+ie]
			a2 := a[(l+2)*m+ib : (l+2)*m+ie]
			a3 := a[(l+3)*m+ib : (l+3)*m+ie]
			axpy4x4(c0, c1, c2, c3, a0, a1, a2, a3,
				b[(j+0)+(l+0)*nb], b[(j+0)+(l+1)*nb], b[(j+0)+(l+2)*nb], b[(j+0)+(l+3)*nb],
				b[(j+1)+(l+0)*nb], b[(j+1)+(l+1)*nb], b[(j+1)+(l+2)*nb], b[(j+1)+(l+3)*nb],
				b[(j+2)+(l+0)*nb], b[(j+2)+(l+1)*nb], b[(j+2)+(l+2)*nb], b[(j+2)+(l+3)*nb],
				b[(j+3)+(l+0)*nb], b[(j+3)+(l+1)*nb], b[(j+3)+(l+2)*nb], b[(j+3)+(l+3)*nb])
		}
		for ; l < l1; l++ {
			al := a[l*m+ib : l*m+ie]
			axpy4x1(c0, c1, c2, c3, al,
				b[(j+0)+l*nb], b[(j+1)+l*nb], b[(j+2)+l*nb], b[(j+3)+l*nb])
		}
	}
	for ; j < j1; j++ {
		cj := c[j*m+ib : j*m+ie]
		l := l0
		for ; l+4 <= l1; l += 4 {
			a0 := a[(l+0)*m+ib : (l+0)*m+ie]
			a1 := a[(l+1)*m+ib : (l+1)*m+ie]
			a2 := a[(l+2)*m+ib : (l+2)*m+ie]
			a3 := a[(l+3)*m+ib : (l+3)*m+ie]
			axpy1x4(cj, a0, a1, a2, a3,
				b[j+(l+0)*nb], b[j+(l+1)*nb], b[j+(l+2)*nb], b[j+(l+3)*nb])
		}
		for ; l < l1; l++ {
			axpy(cj, a[l*m+ib:l*m+ie], b[j+l*nb])
		}
	}
}

// The micro-kernels delegate to the internal/simd dispatch layer. The
// scalar bodies that used to live here moved verbatim to
// simd.*Generic — the portable fallback and correctness oracle — and
// on amd64/arm64 the dispatch variables bind the AVX2+FMA / NEON
// assembly at init. Every worker calls through the same bound
// variable, so parallel results stay independent of the worker count
// on either path.

// axpy4x4 is the register-blocked micro-kernel: a 4x4 tile of
// coefficients w applied to four source columns, accumulated into four
// destination columns. All eight slices have equal length.
func axpy4x4(c0, c1, c2, c3, a0, a1, a2, a3 []float64,
	w00, w01, w02, w03,
	w10, w11, w12, w13,
	w20, w21, w22, w23,
	w30, w31, w32, w33 float64) {
	simd.Axpy4x4(c0, c1, c2, c3, a0, a1, a2, a3,
		w00, w01, w02, w03, w10, w11, w12, w13,
		w20, w21, w22, w23, w30, w31, w32, w33)
}

// axpy4x1 accumulates one source column into four destinations.
func axpy4x1(c0, c1, c2, c3, al []float64, w0, w1, w2, w3 float64) {
	simd.Axpy4x1(c0, c1, c2, c3, al, w0, w1, w2, w3)
}

// axpy1x4 accumulates four source columns into one destination.
func axpy1x4(cj, a0, a1, a2, a3 []float64, w0, w1, w2, w3 float64) {
	simd.Axpy1x4(cj, a0, a1, a2, a3, w0, w1, w2, w3)
}

// axpy accumulates cj += al * w.
func axpy(cj, al []float64, w float64) {
	simd.Axpy(cj, al, w)
}

// dotUnroll is a four-accumulator dot product. The unrolled head
// reduces before the tail folds in (simd.DotGeneric), matching the
// lanes-then-tail order of the vector kernels.
func dotUnroll(x, y []float64) float64 {
	return simd.Dot(x, y)
}

func checkLen(op string, got, want int) {
	if got < want {
		panic("linalg: " + op + " slice too short")
	}
}
