package ttm

import (
	"fmt"

	"repro/internal/fanout"
	"repro/internal/kernel"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/simd"
	"repro/internal/tensor"
)

// gramSlabName labels per-chunk gram accumulation on flight-recorder
// worker rows.
var gramSlabName = flight.RegisterName("gram-slab")

// gramChunks fixes the bucket count: the contraction range is split
// into chunks by index and each chunk accumulates into its own bucket,
// merged by kernel.ReduceTree in an order that depends only on the
// bucket count — so the gram is bitwise identical for every worker
// count.
const gramChunks = 16

// gramPanel is the contraction length of one dot-form panel: I columns
// of gramPanel words (64 KiB at I = 32) stay cache hot while every
// upper-triangle dot of the panel reads them.
const gramPanel = 256

// gramPackL is the slab height below which interior slabs are packed:
// gramPanel/L consecutive slabs are copied into one per-worker panel
// so the dots run gramPanel long instead of L.
const gramPackL = 128

// GramInto computes G = Y_(k) Y_(k)^T (I_k x I_k) — the Gram matrix
// of the mode-k unfolding — without materializing the unfolding, as a
// symmetric rank-k update: only the upper triangle is formed, then
// mirrored, so G is exactly symmetric at about half a GEMM's flops.
//
// The contraction range (the Rt slabs of the L x I x Rt stack, or the
// L rows when Rt = 1) is split into fixed chunks, each accumulating
// into its own bucket:
//
//   - Rt = 1 (trailing mode): dots over gramPanel-long panels of the
//     L x I storage's columns, through the 2x4 dot tile;
//   - L = 1 (leading mode): outer products of the I x Rt storage's
//     columns, through the 4x4 axpy tile on column prefixes;
//   - interior, L >= gramPackL: dots over panels of each slab;
//   - interior, L < gramPackL: dots over per-worker panels packed from
//     gramPanel/L consecutive slabs.
//
// ws supplies the buckets and pack panels (steady-state calls allocate
// nothing).
//
//repro:hotpath
func GramInto(g *tensor.Matrix, y *tensor.Dense, mode, workers int, ws *Workspace) {
	N := y.Order()
	if mode < 0 || mode >= N {
		panic(fmt.Sprintf("ttm: mode %d out of range for order %d", mode, N))
	}
	L, I, Rt := slabShape(y, mode)
	if g.Rows() != I || g.Cols() != I {
		panic(fmt.Sprintf("ttm: gram is %dx%d, mode %d needs %dx%d", g.Rows(), g.Cols(), mode, I, I))
	}
	sp := obs.Start(obs.PhaseGram)
	obs.Syrk(I, L*Rt)
	units := Rt
	if Rt == 1 {
		units = L
	}
	nbuf := min(gramChunks, units)
	workers = min(linalg.ResolveWorkers(workers), nbuf)
	n := I * I
	packWords := 0
	if L > 1 && L < gramPackL && Rt > 1 {
		packWords = gramPanel * I
	}
	ws.ensureGram(n, nbuf, workers*packWords)
	bufs := ws.bufs[:nbuf]
	bufs[0] = g.Data()[:n]
	for b := 1; b < nbuf; b++ {
		bufs[b] = ws.priv[(b-1)*n : b*n]
	}
	for _, b := range bufs {
		clear(b)
	}
	ws.gram = gramTask{bufs: bufs, pack: ws.pack, data: y.Data(), L: L, I: I, Rt: Rt, packWords: packWords}
	fanout.Run(&ws.gram, nbuf, workers)
	ws.gram = gramTask{}
	kernel.ReduceTree(bufs, workers)
	mirrorUpper(bufs[0], I)
	sp.Stop()
}

// gramTask is GramInto's chunk pass as a fanout task. Chunk c's
// bucket is touched only by the slot that runs c, so buckets need no
// locking and the ReduceTree merge is the only combine.
type gramTask struct {
	bufs                [][]float64
	pack, data          []float64 // pack: packWords per slot
	L, I, Rt, packWords int
}

// Chunk adds chunk c's share into bucket c, packing through the
// slot's panel.
//
//repro:hotpath
func (t *gramTask) Chunk(c, slot int) {
	fr := flight.Rec()
	if fr.Enabled() {
		fr.Begin(flight.AnonPid, slot, gramSlabName)
	}
	symChunk(t.bufs[c], t.pack[slot*t.packWords:(slot+1)*t.packWords], t.data, t.L, t.I, t.Rt, c, len(t.bufs))
	if fr.Enabled() {
		fr.End(flight.AnonPid, slot, gramSlabName)
	}
}

// symChunk adds the upper triangle of chunk c's share of the
// contraction into bucket; pack is the calling worker's panel.
//
//repro:hotpath
func symChunk(bucket, pack, data []float64, L, I, Rt, c, nbuf int) {
	if Rt == 1 {
		r0, r1 := c*L/nbuf, (c+1)*L/nbuf
		for p := r0; p < r1; p += gramPanel {
			symDots(bucket, data, p, L, min(gramPanel, r1-p), I)
		}
		return
	}
	t0, t1 := c*Rt/nbuf, (c+1)*Rt/nbuf
	switch {
	case L == 1:
		symOuter(bucket, data[t0*I:t1*I], I)
	case L < gramPackL:
		per := gramPanel / L
		for t := t0; t < t1; t += per {
			ns := min(per, t1-t)
			np := ns * L
			packSlabs(pack[:np*I], data[t*L*I:(t+ns)*L*I], L, I, ns)
			symDots(bucket, pack, 0, np, np, I)
		}
	default:
		for t := t0; t < t1; t++ {
			for p := 0; p < L; p += gramPanel {
				symDots(bucket, data, t*L*I+p, L, min(gramPanel, L-p), I)
			}
		}
	}
}

// symDots adds the upper triangle of P^T P into the I x I bucket g,
// where P's column i is x[off+i*ld : off+i*ld+n]. Row pairs run
// through the 2x4 dot tile over the four-column groups from the
// pair's own group onward; columns past the last full group, and the
// odd last row's diagonal, take single dots. Entries below the
// diagonal inside a tile are computed but never read.
//
//repro:hotpath
func symDots(g, x []float64, off, ld, n, I int) {
	jr := I &^ 3
	i := 0
	for ; i+2 <= I; i += 2 {
		x0 := x[off+i*ld : off+i*ld+n]
		x1 := x[off+(i+1)*ld : off+(i+1)*ld+n]
		for j := i &^ 3; j < jr; j += 4 {
			s00, s01, s02, s03, s10, s11, s12, s13 := simd.Dot2x4(x0, x1,
				x[off+j*ld:off+j*ld+n], x[off+(j+1)*ld:off+(j+1)*ld+n],
				x[off+(j+2)*ld:off+(j+2)*ld+n], x[off+(j+3)*ld:off+(j+3)*ld+n])
			g[i+j*I] += s00
			g[i+(j+1)*I] += s01
			g[i+(j+2)*I] += s02
			g[i+(j+3)*I] += s03
			g[i+1+j*I] += s10
			g[i+1+(j+1)*I] += s11
			g[i+1+(j+2)*I] += s12
			g[i+1+(j+3)*I] += s13
		}
		for j := max(jr, i); j < I; j++ {
			xj := x[off+j*ld : off+j*ld+n]
			g[i+j*I] += simd.Dot(x0, xj)
			g[i+1+j*I] += simd.Dot(x1, xj)
		}
	}
	if i < I {
		xi := x[off+i*ld : off+i*ld+n]
		g[i+i*I] += simd.Dot(xi, xi)
	}
}

// symOuter adds the upper triangle of Y Y^T into the I x I bucket g,
// where y holds Y's columns back to back (column t is y[t*I:t*I+I]):
// four columns at a time through the 4x4 axpy tile, updating only the
// prefix rows 0..j+3 of G's columns j..j+3.
//
//repro:hotpath
func symOuter(g, y []float64, I int) {
	n := len(y) / I
	jr := I &^ 3
	t := 0
	for ; t+4 <= n; t += 4 {
		y0 := y[t*I : t*I+I]
		y1 := y[(t+1)*I : (t+1)*I+I]
		y2 := y[(t+2)*I : (t+2)*I+I]
		y3 := y[(t+3)*I : (t+3)*I+I]
		for j := 0; j < jr; j += 4 {
			p := j + 4
			simd.Axpy4x4(g[j*I:j*I+p], g[(j+1)*I:(j+1)*I+p], g[(j+2)*I:(j+2)*I+p], g[(j+3)*I:(j+3)*I+p],
				y0[:p], y1[:p], y2[:p], y3[:p],
				y0[j], y1[j], y2[j], y3[j],
				y0[j+1], y1[j+1], y2[j+1], y3[j+1],
				y0[j+2], y1[j+2], y2[j+2], y3[j+2],
				y0[j+3], y1[j+3], y2[j+3], y3[j+3])
		}
		for j := jr; j < I; j++ {
			p := j + 1
			simd.Axpy1x4(g[j*I:j*I+p], y0[:p], y1[:p], y2[:p], y3[:p], y0[j], y1[j], y2[j], y3[j])
		}
	}
	for ; t < n; t++ {
		yt := y[t*I : t*I+I]
		for j := 0; j < jr; j += 4 {
			p := j + 4
			simd.Axpy4x1(g[j*I:j*I+p], g[(j+1)*I:(j+1)*I+p], g[(j+2)*I:(j+2)*I+p], g[(j+3)*I:(j+3)*I+p],
				yt[:p], yt[j], yt[j+1], yt[j+2], yt[j+3])
		}
		for j := jr; j < I; j++ {
			simd.Axpy(g[j*I:j*I+j+1], yt[:j+1], yt[j])
		}
	}
}

// packSlabs copies the ns consecutive L x I slabs in src into the
// (ns*L) x I column-major panel dst: column i of dst is column i of
// every slab, stacked in slab order.
func packSlabs(dst, src []float64, L, I, ns int) {
	np := ns * L
	for q := 0; q < ns; q++ {
		slab := src[q*L*I : (q+1)*L*I]
		for i := 0; i < I; i++ {
			copy(dst[i*np+q*L:i*np+q*L+L], slab[i*L:i*L+L])
		}
	}
}

// mirrorUpper copies the upper triangle of the I x I column-major g
// onto its lower triangle.
func mirrorUpper(g []float64, I int) {
	for j := 0; j < I; j++ {
		for i := j + 1; i < I; i++ {
			g[i+j*I] = g[j+i*I]
		}
	}
}
