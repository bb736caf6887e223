package linalg

// The dense GEMM execution engine: cache-blocked, register-blocked,
// parallel matrix kernels operating on raw column-major
// slices. These are the flop-carrying substrate under the paper's cost
// models — the communication-oblivious "do the arithmetic as fast as
// the hardware allows" layer, blocked per the discipline of Ballard et
// al., "Minimizing Communication in Numerical Linear Algebra": the
// innermost kernel updates a 4x4 register tile (GemmTN: a 2x4 tile of
// dot products), or on the avx512 level a 16x8 tile (GemmTN: 6x8, or
// 3x16 on blocks of three to eleven rows) held in zmm registers for a
// whole cache block, so rank-8 and rank-16 products both reach it; the
// middle loops keep a panel of A resident in cache, and the outer loop
// hands disjoint column (or row) panels of C to the slots of one fanout
// section.
//
// Three data orders cover every multiply in the repository:
//
//	GemmNN: C = A * B     (via-matmul baseline, mode-0 MTTKRP on small views)
//	GemmTN: C = A^T * B   (Gram matrices, last-mode and interior MTTKRP)
//	GemmNT: C = A * B^T   (TTMs against a factor's columns, Tucker reconstruction,
//	                       the chunked mode-0 MTTKRP root's row-major KR rows)
//
// All kernels overwrite C and tolerate m, n, k of 1 (factor matrices
// are tall and skinny; degenerate extents appear in distributed local
// blocks).

import (
	"runtime"

	"repro/internal/fanout"
	"repro/internal/obs"
	"repro/internal/simd"
)

// gemmBlock is the KC and MC cache-blocking extent: the A panel held
// hot across a column sweep is gemmBlock x gemmBlock words (512 KiB at
// 8 bytes/word, sized for a typical L2). It is a constant, so the
// summation order — and every result — is fixed by the shape alone.
const gemmBlock = 256

// gemmSmall is the flop threshold below which a parallel section
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

// gemmKind selects the kernel and the dimension a gemmTask splits.
type gemmKind uint8

const (
	nnCols gemmKind = iota
	nnRows
	tnRows
	ntCols
	nn32Cols
	tn32Rows
)

// gemmTask is one parallel GEMM: part c of `parts` covers columns (or
// rows) [c*total/parts, (c+1)*total/parts) of C and runs one
// single-threaded kernel call, so every element of C is computed in
// the same order whatever the part count or the slot that runs it.
type gemmTask struct {
	kind         gemmKind
	c, a, b      []float64
	a32          []float32
	m, k, n      int
	total, parts int
}

// gemmTasks holds the descriptors of the GEMMs in flight: a GEMM has
// no workspace to keep one in.
var gemmTasks fanout.Free[gemmTask]

// Chunk runs part c.
//
//repro:hotpath
func (t *gemmTask) Chunk(c, _ int) {
	lo, hi := c*t.total/t.parts, (c+1)*t.total/t.parts
	switch t.kind {
	case nnCols:
		gemmNN(t.c, t.a, t.b, t.m, t.k, t.k, 1, 0, t.m, lo, hi)
	case nnRows:
		gemmNN(t.c, t.a, t.b, t.m, t.k, t.k, 1, lo, hi, 0, t.n)
	case tnRows:
		gemmTN(t.c, t.a, t.b, t.m, t.k, t.n, lo, hi)
	case ntCols:
		gemmNN(t.c, t.a, t.b, t.m, t.k, 1, t.n, 0, t.m, lo, hi)
	case nn32Cols:
		gemm32NN(t.c, t.a32, t.b, t.m, t.k, lo, hi)
	case tn32Rows:
		gemm32TN(t.c, t.a32, t.b, t.m, t.k, t.n, lo, hi)
	}
}

// parallelGemm splits `total` columns (or rows) of C into
// min(workers, total) contiguous parts and runs them on as many fanout
// slots. m, k, n are the kernel's own extents (GemmTN's m, ka, n;
// GemmNT's m, k, nb).
func parallelGemm(kind gemmKind, c, a, b []float64, a32 []float32, m, k, n, total, workers int) {
	t := gemmTasks.Get()
	parts := min(workers, total)
	*t = gemmTask{kind: kind, c: c, a: a, b: b, a32: a32, m: m, k: k, n: n, total: total, parts: parts}
	fanout.Run(t, parts, parts)
	*t = gemmTask{}
	gemmTasks.Put(t)
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
		gemmNN(c, a, b, m, k, k, 1, 0, m, 0, n)
		return
	}
	// Prefer disjoint column panels; fall back to row panels when C is
	// wide in rows but narrow in columns (e.g. GEMM against a rank-R
	// Khatri-Rao product with small R), and, when the 16x8 tile is
	// bound, when column panels would split its 8 columns while row
	// panels keep whole tiles.
	tileRows := simd.Gemm16x8 != nil && n >= 8 && n < 8*w && m >= 16*w
	if n >= 2*w && !tileRows {
		parallelGemm(nnCols, c, a, b, nil, m, k, n, n, w)
	} else {
		parallelGemm(nnRows, c, a, b, nil, m, k, n, m, w)
	}
}

// gemmNN computes the C block rows [i0,i1) x columns [j0,j1) of
// C = A * op(B), with op(B)(l, j) = b[j*bj+l*bl]: GemmNN's B (bj = k,
// bl = 1) or GemmNT's B^T (bj = 1, bl = nb). Each element is one FMA
// chain over l ascending on the FMA paths, whichever kernel runs it.
func gemmNN(c, a, b []float64, m, k, bj, bl, i0, i1, j0, j1 int) {
	for j := j0; j < j1; j++ {
		clear(c[j*m+i0 : j*m+i1])
	}
	for l0 := 0; l0 < k; l0 += gemmBlock {
		l1 := min(l0+gemmBlock, k)
		for ib := i0; ib < i1; ib += gemmBlock {
			ie := min(ib+gemmBlock, i1)
			gemmNNBlock(c, a, b, m, bj, bl, l0, l1, ib, ie, j0, j1)
		}
	}
}

// gemmNNBlock accumulates A(ib:ie, l0:l1) * op(B)(l0:l1, j0:j1) into
// C: full 16x8 tiles through simd.Gemm16x8 when it is bound, the rest
// through the 4x4 kernels. Both continue each element's FMA chain over
// l, so the split changes no bit.
func gemmNNBlock(c, a, b []float64, m, bj, bl, l0, l1, ib, ie, j0, j1 int) {
	if tile := simd.Gemm16x8; tile != nil {
		it, jt := ib+(ie-ib)&^15, j0+(j1-j0)&^7
		for j := j0; j < jt; j += 8 {
			for i := ib; i < it; i += 16 {
				tile(c[i+j*m:], m, a[i+l0*m:], m, b[j*bj+l0*bl:], bj, bl, l1-l0)
			}
		}
		if it < ie {
			gemmNNAxpy(c, a, b, m, bj, bl, l0, l1, it, ie, j0, jt)
		}
		j0 = jt
	}
	gemmNNAxpy(c, a, b, m, bj, bl, l0, l1, ib, ie, j0, j1)
}

// gemmNNAxpy is gemmNNBlock on the 4x4 kernels, the coefficient tile
// read from op(B) through its strides. Every worker calls the same
// bound simd dispatch variables, so no bit depends on the worker count.
func gemmNNAxpy(c, a, b []float64, m, bj, bl, l0, l1, ib, ie, j0, j1 int) {
	j := j0
	for ; j+4 <= j1; j += 4 {
		c0 := c[(j+0)*m+ib : (j+0)*m+ie]
		c1 := c[(j+1)*m+ib : (j+1)*m+ie]
		c2 := c[(j+2)*m+ib : (j+2)*m+ie]
		c3 := c[(j+3)*m+ib : (j+3)*m+ie]
		p0, p1, p2, p3 := (j+0)*bj, (j+1)*bj, (j+2)*bj, (j+3)*bj
		l := l0
		for ; l+4 <= l1; l += 4 {
			a0 := a[(l+0)*m+ib : (l+0)*m+ie]
			a1 := a[(l+1)*m+ib : (l+1)*m+ie]
			a2 := a[(l+2)*m+ib : (l+2)*m+ie]
			a3 := a[(l+3)*m+ib : (l+3)*m+ie]
			q0, q1, q2, q3 := (l+0)*bl, (l+1)*bl, (l+2)*bl, (l+3)*bl
			simd.Axpy4x4(c0, c1, c2, c3, a0, a1, a2, a3,
				b[p0+q0], b[p0+q1], b[p0+q2], b[p0+q3],
				b[p1+q0], b[p1+q1], b[p1+q2], b[p1+q3],
				b[p2+q0], b[p2+q1], b[p2+q2], b[p2+q3],
				b[p3+q0], b[p3+q1], b[p3+q2], b[p3+q3])
		}
		for ; l < l1; l++ {
			al := a[l*m+ib : l*m+ie]
			q := l * bl
			simd.Axpy4x1(c0, c1, c2, c3, al, b[p0+q], b[p1+q], b[p2+q], b[p3+q])
		}
	}
	for ; j < j1; j++ {
		cj := c[j*m+ib : j*m+ie]
		p := j * bj
		l := l0
		for ; l+4 <= l1; l += 4 {
			a0 := a[(l+0)*m+ib : (l+0)*m+ie]
			a1 := a[(l+1)*m+ib : (l+1)*m+ie]
			a2 := a[(l+2)*m+ib : (l+2)*m+ie]
			a3 := a[(l+3)*m+ib : (l+3)*m+ie]
			simd.Axpy1x4(cj, a0, a1, a2, a3, b[p+(l+0)*bl], b[p+(l+1)*bl], b[p+(l+2)*bl], b[p+(l+3)*bl])
		}
		for ; l < l1; l++ {
			simd.Axpy(cj, a[l*m+ib:l*m+ie], b[p+l*bl])
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
	// Rows of C are columns of A: each part owns a disjoint row range
	// and streams its A columns exactly once.
	parallelGemm(tnRows, c, a, b, nil, m, ka, n, ka, w)
}

// gemmTN fills C rows [i0,i1): C(i,j) = <A(:,i), B(:,j)>. Blocks of
// A's columns sized to the gemmBlock x gemmBlock panel form the outer
// loop and B's column groups sweep each block while it is cache hot,
// so A streams from memory once. When the dot tiles are bound and B's
// columns fit one gemmBlock (4 <= m <= gemmBlock):
//
//   - a block of twelve rows or more runs its 8-column groups on
//     simd.Dot6x8, in panels of B within the same gemmBlock x gemmBlock
//     budget: six rows at a time in the panel's outer loop, so each
//     6-column strip of A stays in L1 across the panel's groups and
//     the panel stays in cache across the strips, and B streams from
//     memory once as well;
//   - a block of three to eleven rows runs its 16-column groups on
//     simd.Dot3x16, three rows at a time, each group in L1 across them.
//
// A last tile that would pass the block's end moves back to end there,
// so the rows it shares with the tile before it are written twice with
// the same values. Every other four-column group goes through the 2x4
// dot tile in row pairs (an odd last row through Dot4). The tiles and
// Dot2x4 are bitwise Dot4 per output, so every element of a
// four-column group is exactly its Dot4 value and every element of the
// n mod 4 remainder exactly its Dot value, whatever the blocking, the
// tile or the row pairing.
func gemmTN(c, a, b []float64, m, ka, n, i0, i1 int) {
	t6, t3 := simd.Dot6x8, simd.Dot3x16
	if m < 4 || m > gemmBlock {
		t6, t3 = nil, nil
	}
	nb := max(2, gemmBlock*gemmBlock/max(m, 1)&^1)
	for ib := i0; ib < i1; ib += nb {
		ie := min(ib+nb, i1)
		j := 0
		switch {
		case t6 != nil && ie-ib >= 12 && n >= 8:
			j = n &^ 7
			for j0 := 0; j0 < j; j0 += nb &^ 7 {
				j1 := min(j0+nb&^7, j)
				for i := ib; i < ie; i += 6 {
					i = min(i, ie-6)
					for jt := j0; jt < j1; jt += 8 {
						t6(c[i+jt*ka:], ka, a[i*m:], m, b[jt*m:], m, m)
					}
				}
			}
		case t3 != nil && ie-ib >= 3 && n >= 16:
			j = n &^ 15
			for jt := 0; jt < j; jt += 16 {
				for i := ib; i < ie; i += 3 {
					i = min(i, ie-3)
					t3(c[i+jt*ka:], ka, a[i*m:], m, b[jt*m:], m, m)
				}
			}
		}
		gemmTNDots(c, a, b, m, ka, ib, ie, j, n&^3)
		for j = n &^ 3; j < n; j++ {
			bj := b[j*m : j*m+m]
			for i := ib; i < ie; i++ {
				c[i+j*ka] = simd.Dot(a[i*m:i*m+m], bj)
			}
		}
	}
}

// gemmTNDots fills C rows [i0,i1) of the four-column groups in
// [j0,j1) through the 2x4 dot tile in row pairs, an odd last row
// through Dot4.
func gemmTNDots(c, a, b []float64, m, ka, i0, i1, j0, j1 int) {
	for j := j0; j+4 <= j1; j += 4 {
		b0 := b[(j+0)*m : (j+0)*m+m]
		b1 := b[(j+1)*m : (j+1)*m+m]
		b2 := b[(j+2)*m : (j+2)*m+m]
		b3 := b[(j+3)*m : (j+3)*m+m]
		c0 := c[(j+0)*ka : (j+0)*ka+ka]
		c1 := c[(j+1)*ka : (j+1)*ka+ka]
		c2 := c[(j+2)*ka : (j+2)*ka+ka]
		c3 := c[(j+3)*ka : (j+3)*ka+ka]
		i := i0
		for ; i+2 <= i1; i += 2 {
			c0[i], c1[i], c2[i], c3[i],
				c0[i+1], c1[i+1], c2[i+1], c3[i+1] = simd.Dot2x4(
				a[i*m:i*m+m], a[(i+1)*m:(i+1)*m+m], b0, b1, b2, b3)
		}
		if i < i1 {
			c0[i], c1[i], c2[i], c3[i] = simd.Dot4(a[i*m:i*m+m], b0, b1, b2, b3)
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
		gemmNN(c, a, b, m, k, 1, nb, 0, m, 0, nb)
		return
	}
	parallelGemm(ntCols, c, a, b, nil, m, k, nb, nb, w)
}

func checkLen(op string, got, want int) {
	if got < want {
		panic("linalg: " + op + " slice too short")
	}
}
