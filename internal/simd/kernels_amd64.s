//go:build amd64 && !purego

// AVX2+FMA micro-kernels. Conventions shared by every TEXT below:
//
//   - Lengths come from the first destination (or x) slice header;
//     the Go shims in dispatch_amd64.go have already trimmed every
//     other slice to that length, so loads past len cannot happen.
//   - Vector accumulators reduce as (acc0+acc1)+(acc2+acc3), then
//     lanes, then the scalar tail folds into the reduced sum — the
//     accumulator order DotGeneric mirrors.
//   - Every kernel ends with VZEROUPPER to avoid AVX/SSE transition
//     stalls in the surrounding Go code.

#include "textflag.h"

// func axpyAVX2(c, a []float64, w float64)
// c[i] += a[i] * w
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	MOVQ         c_base+0(FP), DI
	MOVQ         a_base+24(FP), SI
	MOVQ         c_len+8(FP), CX
	VBROADCASTSD w+48(FP), Y0
	XORQ         AX, AX

axpy_loop16:
	MOVQ AX, DX
	ADDQ $16, DX
	CMPQ DX, CX
	JGT  axpy_loop4
	VMOVUPD      (DI)(AX*8), Y1
	VMOVUPD      32(DI)(AX*8), Y2
	VMOVUPD      64(DI)(AX*8), Y3
	VMOVUPD      96(DI)(AX*8), Y4
	VFMADD231PD  (SI)(AX*8), Y0, Y1
	VFMADD231PD  32(SI)(AX*8), Y0, Y2
	VFMADD231PD  64(SI)(AX*8), Y0, Y3
	VFMADD231PD  96(SI)(AX*8), Y0, Y4
	VMOVUPD      Y1, (DI)(AX*8)
	VMOVUPD      Y2, 32(DI)(AX*8)
	VMOVUPD      Y3, 64(DI)(AX*8)
	VMOVUPD      Y4, 96(DI)(AX*8)
	MOVQ         DX, AX
	JMP          axpy_loop16

axpy_loop4:
	MOVQ AX, DX
	ADDQ $4, DX
	CMPQ DX, CX
	JGT  axpy_tail
	VMOVUPD     (DI)(AX*8), Y1
	VFMADD231PD (SI)(AX*8), Y0, Y1
	VMOVUPD     Y1, (DI)(AX*8)
	MOVQ        DX, AX
	JMP         axpy_loop4

axpy_tail:
	CMPQ AX, CX
	JGE  axpy_done
	VMOVSD      (DI)(AX*8), X1
	VFMADD231SD (SI)(AX*8), X0, X1
	VMOVSD      X1, (DI)(AX*8)
	INCQ        AX
	JMP         axpy_tail

axpy_done:
	VZEROUPPER
	RET

// func axpy4x1AVX2(c0, c1, c2, c3, a []float64, w0, w1, w2, w3 float64)
// c_j[i] += a[i] * w_j
TEXT ·axpy4x1AVX2(SB), NOSPLIT, $0-152
	MOVQ         c0_base+0(FP), DI
	MOVQ         c1_base+24(FP), R8
	MOVQ         c2_base+48(FP), R9
	MOVQ         c3_base+72(FP), R10
	MOVQ         a_base+96(FP), SI
	MOVQ         c0_len+8(FP), CX
	VBROADCASTSD w0+120(FP), Y0
	VBROADCASTSD w1+128(FP), Y1
	VBROADCASTSD w2+136(FP), Y2
	VBROADCASTSD w3+144(FP), Y3
	XORQ         AX, AX

a4x1_loop4:
	MOVQ AX, DX
	ADDQ $4, DX
	CMPQ DX, CX
	JGT  a4x1_tail
	VMOVUPD     (SI)(AX*8), Y4
	VMOVUPD     (DI)(AX*8), Y5
	VMOVUPD     (R8)(AX*8), Y6
	VFMADD231PD Y0, Y4, Y5
	VFMADD231PD Y1, Y4, Y6
	VMOVUPD     Y5, (DI)(AX*8)
	VMOVUPD     Y6, (R8)(AX*8)
	VMOVUPD     (R9)(AX*8), Y5
	VMOVUPD     (R10)(AX*8), Y6
	VFMADD231PD Y2, Y4, Y5
	VFMADD231PD Y3, Y4, Y6
	VMOVUPD     Y5, (R9)(AX*8)
	VMOVUPD     Y6, (R10)(AX*8)
	MOVQ        DX, AX
	JMP         a4x1_loop4

a4x1_tail:
	CMPQ AX, CX
	JGE  a4x1_done
	VMOVSD      (SI)(AX*8), X4
	VMOVSD      (DI)(AX*8), X5
	VFMADD231SD X0, X4, X5
	VMOVSD      X5, (DI)(AX*8)
	VMOVSD      (R8)(AX*8), X5
	VFMADD231SD X1, X4, X5
	VMOVSD      X5, (R8)(AX*8)
	VMOVSD      (R9)(AX*8), X5
	VFMADD231SD X2, X4, X5
	VMOVSD      X5, (R9)(AX*8)
	VMOVSD      (R10)(AX*8), X5
	VFMADD231SD X3, X4, X5
	VMOVSD      X5, (R10)(AX*8)
	INCQ        AX
	JMP         a4x1_tail

a4x1_done:
	VZEROUPPER
	RET

// func axpy1x4AVX2(c, a0, a1, a2, a3 []float64, w0, w1, w2, w3 float64)
// c[i] += a0[i]*w0 + a1[i]*w1 + a2[i]*w2 + a3[i]*w3
TEXT ·axpy1x4AVX2(SB), NOSPLIT, $0-152
	MOVQ         c_base+0(FP), DI
	MOVQ         a0_base+24(FP), SI
	MOVQ         a1_base+48(FP), R8
	MOVQ         a2_base+72(FP), R9
	MOVQ         a3_base+96(FP), R10
	MOVQ         c_len+8(FP), CX
	VBROADCASTSD w0+120(FP), Y0
	VBROADCASTSD w1+128(FP), Y1
	VBROADCASTSD w2+136(FP), Y2
	VBROADCASTSD w3+144(FP), Y3
	XORQ         AX, AX

a1x4_loop8:
	MOVQ AX, DX
	ADDQ $8, DX
	CMPQ DX, CX
	JGT  a1x4_loop4
	VMOVUPD     (DI)(AX*8), Y4
	VMOVUPD     32(DI)(AX*8), Y5
	VFMADD231PD (SI)(AX*8), Y0, Y4
	VFMADD231PD 32(SI)(AX*8), Y0, Y5
	VFMADD231PD (R8)(AX*8), Y1, Y4
	VFMADD231PD 32(R8)(AX*8), Y1, Y5
	VFMADD231PD (R9)(AX*8), Y2, Y4
	VFMADD231PD 32(R9)(AX*8), Y2, Y5
	VFMADD231PD (R10)(AX*8), Y3, Y4
	VFMADD231PD 32(R10)(AX*8), Y3, Y5
	VMOVUPD     Y4, (DI)(AX*8)
	VMOVUPD     Y5, 32(DI)(AX*8)
	MOVQ        DX, AX
	JMP         a1x4_loop8

a1x4_loop4:
	MOVQ AX, DX
	ADDQ $4, DX
	CMPQ DX, CX
	JGT  a1x4_tail
	VMOVUPD     (DI)(AX*8), Y4
	VFMADD231PD (SI)(AX*8), Y0, Y4
	VFMADD231PD (R8)(AX*8), Y1, Y4
	VFMADD231PD (R9)(AX*8), Y2, Y4
	VFMADD231PD (R10)(AX*8), Y3, Y4
	VMOVUPD     Y4, (DI)(AX*8)
	MOVQ        DX, AX
	JMP         a1x4_loop4

a1x4_tail:
	CMPQ AX, CX
	JGE  a1x4_done
	VMOVSD      (DI)(AX*8), X4
	VFMADD231SD (SI)(AX*8), X0, X4
	VFMADD231SD (R8)(AX*8), X1, X4
	VFMADD231SD (R9)(AX*8), X2, X4
	VFMADD231SD (R10)(AX*8), X3, X4
	VMOVSD      X4, (DI)(AX*8)
	INCQ        AX
	JMP         a1x4_tail

a1x4_done:
	VZEROUPPER
	RET

// func axpy4x4AVX2(c0, c1, c2, c3, a0, a1, a2, a3 []float64,
//	w00, ..., w33 float64)
// c_j[i] += Σ_k a_k[i] * w_jk, as two (c pair) x (a quad) passes so
// the eight live weights of each pass stay in registers.
TEXT ·axpy4x4AVX2(SB), NOSPLIT, $0-320
	MOVQ c0_base+0(FP), DI
	MOVQ c1_base+24(FP), R8
	MOVQ c2_base+48(FP), R9
	MOVQ c3_base+72(FP), R10
	MOVQ a0_base+96(FP), SI
	MOVQ a1_base+120(FP), R11
	MOVQ a2_base+144(FP), R12
	MOVQ a3_base+168(FP), R13
	MOVQ c0_len+8(FP), CX

	// Pass 1: c0 and c1.
	VBROADCASTSD w00+192(FP), Y8
	VBROADCASTSD w01+200(FP), Y9
	VBROADCASTSD w02+208(FP), Y10
	VBROADCASTSD w03+216(FP), Y11
	VBROADCASTSD w10+224(FP), Y12
	VBROADCASTSD w11+232(FP), Y13
	VBROADCASTSD w12+240(FP), Y14
	VBROADCASTSD w13+248(FP), Y15
	XORQ         AX, AX

a4x4_p1:
	MOVQ AX, DX
	ADDQ $4, DX
	CMPQ DX, CX
	JGT  a4x4_p2_setup
	VMOVUPD     (SI)(AX*8), Y0
	VMOVUPD     (R11)(AX*8), Y1
	VMOVUPD     (R12)(AX*8), Y2
	VMOVUPD     (R13)(AX*8), Y3
	VMOVUPD     (DI)(AX*8), Y4
	VFMADD231PD Y8, Y0, Y4
	VFMADD231PD Y9, Y1, Y4
	VFMADD231PD Y10, Y2, Y4
	VFMADD231PD Y11, Y3, Y4
	VMOVUPD     Y4, (DI)(AX*8)
	VMOVUPD     (R8)(AX*8), Y5
	VFMADD231PD Y12, Y0, Y5
	VFMADD231PD Y13, Y1, Y5
	VFMADD231PD Y14, Y2, Y5
	VFMADD231PD Y15, Y3, Y5
	VMOVUPD     Y5, (R8)(AX*8)
	MOVQ        DX, AX
	JMP         a4x4_p1

	// Pass 2: c2 and c3, over the same vector range.
a4x4_p2_setup:
	VBROADCASTSD w20+256(FP), Y8
	VBROADCASTSD w21+264(FP), Y9
	VBROADCASTSD w22+272(FP), Y10
	VBROADCASTSD w23+280(FP), Y11
	VBROADCASTSD w30+288(FP), Y12
	VBROADCASTSD w31+296(FP), Y13
	VBROADCASTSD w32+304(FP), Y14
	VBROADCASTSD w33+312(FP), Y15
	XORQ         AX, AX

a4x4_p2:
	MOVQ AX, DX
	ADDQ $4, DX
	CMPQ DX, CX
	JGT  a4x4_tail
	VMOVUPD     (SI)(AX*8), Y0
	VMOVUPD     (R11)(AX*8), Y1
	VMOVUPD     (R12)(AX*8), Y2
	VMOVUPD     (R13)(AX*8), Y3
	VMOVUPD     (R9)(AX*8), Y4
	VFMADD231PD Y8, Y0, Y4
	VFMADD231PD Y9, Y1, Y4
	VFMADD231PD Y10, Y2, Y4
	VFMADD231PD Y11, Y3, Y4
	VMOVUPD     Y4, (R9)(AX*8)
	VMOVUPD     (R10)(AX*8), Y5
	VFMADD231PD Y12, Y0, Y5
	VFMADD231PD Y13, Y1, Y5
	VFMADD231PD Y14, Y2, Y5
	VFMADD231PD Y15, Y3, Y5
	VMOVUPD     Y5, (R10)(AX*8)
	MOVQ        DX, AX
	JMP         a4x4_p2

	// Scalar tail over the last n%4 rows, all four destinations.
a4x4_tail:
	CMPQ AX, CX
	JGE  a4x4_done
	VMOVSD      (SI)(AX*8), X0
	VMOVSD      (R11)(AX*8), X1
	VMOVSD      (R12)(AX*8), X2
	VMOVSD      (R13)(AX*8), X3
	VMOVSD      (DI)(AX*8), X4
	VFMADD231SD w00+192(FP), X0, X4
	VFMADD231SD w01+200(FP), X1, X4
	VFMADD231SD w02+208(FP), X2, X4
	VFMADD231SD w03+216(FP), X3, X4
	VMOVSD      X4, (DI)(AX*8)
	VMOVSD      (R8)(AX*8), X4
	VFMADD231SD w10+224(FP), X0, X4
	VFMADD231SD w11+232(FP), X1, X4
	VFMADD231SD w12+240(FP), X2, X4
	VFMADD231SD w13+248(FP), X3, X4
	VMOVSD      X4, (R8)(AX*8)
	VMOVSD      (R9)(AX*8), X4
	VFMADD231SD w20+256(FP), X0, X4
	VFMADD231SD w21+264(FP), X1, X4
	VFMADD231SD w22+272(FP), X2, X4
	VFMADD231SD w23+280(FP), X3, X4
	VMOVSD      X4, (R9)(AX*8)
	VMOVSD      (R10)(AX*8), X4
	VFMADD231SD w30+288(FP), X0, X4
	VFMADD231SD w31+296(FP), X1, X4
	VFMADD231SD w32+304(FP), X2, X4
	VFMADD231SD w33+312(FP), X3, X4
	VMOVSD      X4, (R10)(AX*8)
	INCQ        AX
	JMP         a4x4_tail

a4x4_done:
	VZEROUPPER
	RET

// func dotAVX2(x, y []float64) float64
TEXT ·dotAVX2(SB), NOSPLIT, $0-56
	MOVQ   x_base+0(FP), SI
	MOVQ   y_base+24(FP), DI
	MOVQ   x_len+8(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ   AX, AX

dot_loop16:
	MOVQ AX, DX
	ADDQ $16, DX
	CMPQ DX, CX
	JGT  dot_loop4
	VMOVUPD     (SI)(AX*8), Y4
	VMOVUPD     32(SI)(AX*8), Y5
	VMOVUPD     64(SI)(AX*8), Y6
	VMOVUPD     96(SI)(AX*8), Y7
	VFMADD231PD (DI)(AX*8), Y4, Y0
	VFMADD231PD 32(DI)(AX*8), Y5, Y1
	VFMADD231PD 64(DI)(AX*8), Y6, Y2
	VFMADD231PD 96(DI)(AX*8), Y7, Y3
	MOVQ        DX, AX
	JMP         dot_loop16

dot_loop4:
	MOVQ AX, DX
	ADDQ $4, DX
	CMPQ DX, CX
	JGT  dot_reduce
	VMOVUPD     (SI)(AX*8), Y4
	VFMADD231PD (DI)(AX*8), Y4, Y0
	MOVQ        DX, AX
	JMP         dot_loop4

dot_reduce:
	// (Y0+Y1)+(Y2+Y3), then lanes, then the scalar tail.
	VADDPD       Y1, Y0, Y0
	VADDPD       Y3, Y2, Y2
	VADDPD       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0
	VPERMILPD    $1, X0, X1
	VADDSD       X1, X0, X0

dot_tail:
	CMPQ AX, CX
	JGE  dot_done
	VMOVSD      (SI)(AX*8), X4
	VFMADD231SD (DI)(AX*8), X4, X0
	INCQ        AX
	JMP         dot_tail

dot_done:
	VMOVSD X0, ret+48(FP)
	VZEROUPPER
	RET

// func dot4AVX2(x, y0, y1, y2, y3 []float64) (s0, s1, s2, s3 float64)
// Four dot products sharing one x stream.
TEXT ·dot4AVX2(SB), NOSPLIT, $0-152
	MOVQ   x_base+0(FP), SI
	MOVQ   y0_base+24(FP), DI
	MOVQ   y1_base+48(FP), R8
	MOVQ   y2_base+72(FP), R9
	MOVQ   y3_base+96(FP), R10
	MOVQ   x_len+8(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ   AX, AX

dot4_loop4:
	MOVQ AX, DX
	ADDQ $4, DX
	CMPQ DX, CX
	JGT  dot4_reduce
	VMOVUPD     (SI)(AX*8), Y4
	VFMADD231PD (DI)(AX*8), Y4, Y0
	VFMADD231PD (R8)(AX*8), Y4, Y1
	VFMADD231PD (R9)(AX*8), Y4, Y2
	VFMADD231PD (R10)(AX*8), Y4, Y3
	MOVQ        DX, AX
	JMP         dot4_loop4

dot4_reduce:
	VEXTRACTF128 $1, Y0, X4
	VADDPD       X4, X0, X0
	VPERMILPD    $1, X0, X4
	VADDSD       X4, X0, X0
	VEXTRACTF128 $1, Y1, X4
	VADDPD       X4, X1, X1
	VPERMILPD    $1, X1, X4
	VADDSD       X4, X1, X1
	VEXTRACTF128 $1, Y2, X4
	VADDPD       X4, X2, X2
	VPERMILPD    $1, X2, X4
	VADDSD       X4, X2, X2
	VEXTRACTF128 $1, Y3, X4
	VADDPD       X4, X3, X3
	VPERMILPD    $1, X3, X4
	VADDSD       X4, X3, X3

dot4_tail:
	CMPQ AX, CX
	JGE  dot4_done
	VMOVSD      (SI)(AX*8), X4
	VFMADD231SD (DI)(AX*8), X4, X0
	VFMADD231SD (R8)(AX*8), X4, X1
	VFMADD231SD (R9)(AX*8), X4, X2
	VFMADD231SD (R10)(AX*8), X4, X3
	INCQ        AX
	JMP         dot4_tail

dot4_done:
	VMOVSD X0, s0+120(FP)
	VMOVSD X1, s1+128(FP)
	VMOVSD X2, s2+136(FP)
	VMOVSD X3, s3+144(FP)
	VZEROUPPER
	RET

// func dot2x4AVX2(x0, x1, y0, y1, y2, y3 []float64) (s00, s01, s02, s03, s10, s11, s12, s13 float64)
// The 2x4 dot tile s_ij = <x_i, y_j>: eight independent accumulators
// (Y0-Y3 for x0, Y4-Y7 for x1), enough FMA chains to cover two
// 4-cycle FMA ports, and each y vector loaded once for both x rows.
// Per output the FMA order, lane reduction and scalar tail are those
// of dot4AVX2 (one vector accumulator per output, 4-wide steps in
// order, (l0+l2)+(l1+l3), then the tail), so the tile returns bitwise
// what two dot4AVX2 calls return. The 8-wide loop is two 4-wide steps
// on the same accumulators, not a reassociation.
TEXT ·dot2x4AVX2(SB), NOSPLIT, $0-208
	MOVQ   x0_base+0(FP), SI
	MOVQ   x1_base+24(FP), DI
	MOVQ   y0_base+48(FP), R8
	MOVQ   y1_base+72(FP), R9
	MOVQ   y2_base+96(FP), R10
	MOVQ   y3_base+120(FP), BX
	MOVQ   x0_len+8(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ   AX, AX

d2x4_loop8:
	MOVQ AX, DX
	ADDQ $8, DX
	CMPQ DX, CX
	JGT  d2x4_loop4
	VMOVUPD     (SI)(AX*8), Y8
	VMOVUPD     (DI)(AX*8), Y9
	VMOVUPD     (R8)(AX*8), Y10
	VMOVUPD     (R9)(AX*8), Y11
	VMOVUPD     (R10)(AX*8), Y12
	VMOVUPD     (BX)(AX*8), Y13
	VFMADD231PD Y10, Y8, Y0
	VFMADD231PD Y10, Y9, Y4
	VFMADD231PD Y11, Y8, Y1
	VFMADD231PD Y11, Y9, Y5
	VFMADD231PD Y12, Y8, Y2
	VFMADD231PD Y12, Y9, Y6
	VFMADD231PD Y13, Y8, Y3
	VFMADD231PD Y13, Y9, Y7
	VMOVUPD     32(SI)(AX*8), Y8
	VMOVUPD     32(DI)(AX*8), Y9
	VMOVUPD     32(R8)(AX*8), Y10
	VMOVUPD     32(R9)(AX*8), Y11
	VMOVUPD     32(R10)(AX*8), Y12
	VMOVUPD     32(BX)(AX*8), Y13
	VFMADD231PD Y10, Y8, Y0
	VFMADD231PD Y10, Y9, Y4
	VFMADD231PD Y11, Y8, Y1
	VFMADD231PD Y11, Y9, Y5
	VFMADD231PD Y12, Y8, Y2
	VFMADD231PD Y12, Y9, Y6
	VFMADD231PD Y13, Y8, Y3
	VFMADD231PD Y13, Y9, Y7
	MOVQ        DX, AX
	JMP         d2x4_loop8

d2x4_loop4:
	MOVQ AX, DX
	ADDQ $4, DX
	CMPQ DX, CX
	JGT  d2x4_reduce
	VMOVUPD     (SI)(AX*8), Y8
	VMOVUPD     (DI)(AX*8), Y9
	VMOVUPD     (R8)(AX*8), Y10
	VMOVUPD     (R9)(AX*8), Y11
	VMOVUPD     (R10)(AX*8), Y12
	VMOVUPD     (BX)(AX*8), Y13
	VFMADD231PD Y10, Y8, Y0
	VFMADD231PD Y10, Y9, Y4
	VFMADD231PD Y11, Y8, Y1
	VFMADD231PD Y11, Y9, Y5
	VFMADD231PD Y12, Y8, Y2
	VFMADD231PD Y12, Y9, Y6
	VFMADD231PD Y13, Y8, Y3
	VFMADD231PD Y13, Y9, Y7
	MOVQ        DX, AX

d2x4_reduce:
	// At most one 4-wide step remains after the 8-wide loop, so the
	// fall-through above never skips one. Lanes: (l0+l2)+(l1+l3).
	VEXTRACTF128 $1, Y0, X14
	VADDPD       X14, X0, X0
	VPERMILPD    $1, X0, X14
	VADDSD       X14, X0, X0
	VEXTRACTF128 $1, Y1, X14
	VADDPD       X14, X1, X1
	VPERMILPD    $1, X1, X14
	VADDSD       X14, X1, X1
	VEXTRACTF128 $1, Y2, X14
	VADDPD       X14, X2, X2
	VPERMILPD    $1, X2, X14
	VADDSD       X14, X2, X2
	VEXTRACTF128 $1, Y3, X14
	VADDPD       X14, X3, X3
	VPERMILPD    $1, X3, X14
	VADDSD       X14, X3, X3
	VEXTRACTF128 $1, Y4, X14
	VADDPD       X14, X4, X4
	VPERMILPD    $1, X4, X14
	VADDSD       X14, X4, X4
	VEXTRACTF128 $1, Y5, X14
	VADDPD       X14, X5, X5
	VPERMILPD    $1, X5, X14
	VADDSD       X14, X5, X5
	VEXTRACTF128 $1, Y6, X14
	VADDPD       X14, X6, X6
	VPERMILPD    $1, X6, X14
	VADDSD       X14, X6, X6
	VEXTRACTF128 $1, Y7, X14
	VADDPD       X14, X7, X7
	VPERMILPD    $1, X7, X14
	VADDSD       X14, X7, X7

d2x4_tail:
	CMPQ AX, CX
	JGE  d2x4_done
	VMOVSD      (SI)(AX*8), X8
	VMOVSD      (DI)(AX*8), X9
	VMOVSD      (R8)(AX*8), X10
	VMOVSD      (R9)(AX*8), X11
	VMOVSD      (R10)(AX*8), X12
	VMOVSD      (BX)(AX*8), X13
	VFMADD231SD X10, X8, X0
	VFMADD231SD X10, X9, X4
	VFMADD231SD X11, X8, X1
	VFMADD231SD X11, X9, X5
	VFMADD231SD X12, X8, X2
	VFMADD231SD X12, X9, X6
	VFMADD231SD X13, X8, X3
	VFMADD231SD X13, X9, X7
	INCQ        AX
	JMP         d2x4_tail

d2x4_done:
	VMOVSD X0, s00+144(FP)
	VMOVSD X1, s01+152(FP)
	VMOVSD X2, s02+160(FP)
	VMOVSD X3, s03+168(FP)
	VMOVSD X4, s10+176(FP)
	VMOVSD X5, s11+184(FP)
	VMOVSD X6, s12+192(FP)
	VMOVSD X7, s13+200(FP)
	VZEROUPPER
	RET

// func mulAVX2(dst, a, b []float64)
// dst[i] = a[i] * b[i]
TEXT ·mulAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), R8
	MOVQ dst_len+8(FP), CX
	XORQ AX, AX

mul_loop4:
	MOVQ AX, DX
	ADDQ $4, DX
	CMPQ DX, CX
	JGT  mul_tail
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  (R8)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	MOVQ    DX, AX
	JMP     mul_loop4

mul_tail:
	CMPQ AX, CX
	JGE  mul_done
	VMOVSD (SI)(AX*8), X1
	VMULSD (R8)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	JMP    mul_tail

mul_done:
	VZEROUPPER
	RET

// func muladdAVX2(dst, a, b []float64)
// dst[i] += a[i] * b[i]
TEXT ·muladdAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), R8
	MOVQ dst_len+8(FP), CX
	XORQ AX, AX

muladd_loop4:
	MOVQ AX, DX
	ADDQ $4, DX
	CMPQ DX, CX
	JGT  muladd_tail
	VMOVUPD     (DI)(AX*8), Y1
	VMOVUPD     (SI)(AX*8), Y2
	VFMADD231PD (R8)(AX*8), Y2, Y1
	VMOVUPD     Y1, (DI)(AX*8)
	MOVQ        DX, AX
	JMP         muladd_loop4

muladd_tail:
	CMPQ AX, CX
	JGE  muladd_done
	VMOVSD      (DI)(AX*8), X1
	VMOVSD      (SI)(AX*8), X2
	VFMADD231SD (R8)(AX*8), X2, X1
	VMOVSD      X1, (DI)(AX*8)
	INCQ        AX
	JMP         muladd_tail

muladd_done:
	VZEROUPPER
	RET

// func addAVX2(dst, a []float64)
// dst[i] += a[i]
TEXT ·addAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ dst_len+8(FP), CX
	XORQ AX, AX

add_loop4:
	MOVQ AX, DX
	ADDQ $4, DX
	CMPQ DX, CX
	JGT  add_tail
	VMOVUPD (DI)(AX*8), Y1
	VADDPD  (SI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	MOVQ    DX, AX
	JMP     add_loop4

add_tail:
	CMPQ AX, CX
	JGE  add_done
	VMOVSD (DI)(AX*8), X1
	VADDSD (SI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	JMP    add_tail

add_done:
	VZEROUPPER
	RET

// func axpyF32AVX2(c []float64, a []float32, w float64)
// c[i] += float64(a[i]) * w — float32 stream widened in registers.
TEXT ·axpyF32AVX2(SB), NOSPLIT, $0-56
	MOVQ         c_base+0(FP), DI
	MOVQ         a_base+24(FP), SI
	MOVQ         c_len+8(FP), CX
	VBROADCASTSD w+48(FP), Y0
	XORQ         AX, AX

axpyf32_loop4:
	MOVQ AX, DX
	ADDQ $4, DX
	CMPQ DX, CX
	JGT  axpyf32_tail
	VCVTPS2PD   (SI)(AX*4), Y1
	VMOVUPD     (DI)(AX*8), Y2
	VFMADD231PD Y0, Y1, Y2
	VMOVUPD     Y2, (DI)(AX*8)
	MOVQ        DX, AX
	JMP         axpyf32_loop4

axpyf32_tail:
	CMPQ AX, CX
	JGE  axpyf32_done
	VMOVSS      (SI)(AX*4), X1
	VCVTSS2SD   X1, X1, X1
	VMOVSD      (DI)(AX*8), X2
	VFMADD231SD X0, X1, X2
	VMOVSD      X2, (DI)(AX*8)
	INCQ        AX
	JMP         axpyf32_tail

axpyf32_done:
	VZEROUPPER
	RET

// func axpy1x4F32AVX2(c []float64, a0, a1, a2, a3 []float32,
//	w0, w1, w2, w3 float64)
TEXT ·axpy1x4F32AVX2(SB), NOSPLIT, $0-152
	MOVQ         c_base+0(FP), DI
	MOVQ         a0_base+24(FP), SI
	MOVQ         a1_base+48(FP), R8
	MOVQ         a2_base+72(FP), R9
	MOVQ         a3_base+96(FP), R10
	MOVQ         c_len+8(FP), CX
	VBROADCASTSD w0+120(FP), Y0
	VBROADCASTSD w1+128(FP), Y1
	VBROADCASTSD w2+136(FP), Y2
	VBROADCASTSD w3+144(FP), Y3
	XORQ         AX, AX

a1x4f32_loop4:
	MOVQ AX, DX
	ADDQ $4, DX
	CMPQ DX, CX
	JGT  a1x4f32_tail
	VMOVUPD     (DI)(AX*8), Y4
	VCVTPS2PD   (SI)(AX*4), Y5
	VFMADD231PD Y0, Y5, Y4
	VCVTPS2PD   (R8)(AX*4), Y5
	VFMADD231PD Y1, Y5, Y4
	VCVTPS2PD   (R9)(AX*4), Y5
	VFMADD231PD Y2, Y5, Y4
	VCVTPS2PD   (R10)(AX*4), Y5
	VFMADD231PD Y3, Y5, Y4
	VMOVUPD     Y4, (DI)(AX*8)
	MOVQ        DX, AX
	JMP         a1x4f32_loop4

a1x4f32_tail:
	CMPQ AX, CX
	JGE  a1x4f32_done
	VMOVSD      (DI)(AX*8), X4
	VMOVSS      (SI)(AX*4), X5
	VCVTSS2SD   X5, X5, X5
	VFMADD231SD X0, X5, X4
	VMOVSS      (R8)(AX*4), X5
	VCVTSS2SD   X5, X5, X5
	VFMADD231SD X1, X5, X4
	VMOVSS      (R9)(AX*4), X5
	VCVTSS2SD   X5, X5, X5
	VFMADD231SD X2, X5, X4
	VMOVSS      (R10)(AX*4), X5
	VCVTSS2SD   X5, X5, X5
	VFMADD231SD X3, X5, X4
	VMOVSD      X4, (DI)(AX*8)
	INCQ        AX
	JMP         a1x4f32_tail

a1x4f32_done:
	VZEROUPPER
	RET

// func dotF32AVX2(x []float32, y []float64) float64
TEXT ·dotF32AVX2(SB), NOSPLIT, $0-56
	MOVQ   x_base+0(FP), SI
	MOVQ   y_base+24(FP), DI
	MOVQ   x_len+8(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	XORQ   AX, AX

dotf32_loop8:
	MOVQ AX, DX
	ADDQ $8, DX
	CMPQ DX, CX
	JGT  dotf32_loop4
	VCVTPS2PD   (SI)(AX*4), Y4
	VCVTPS2PD   16(SI)(AX*4), Y5
	VFMADD231PD (DI)(AX*8), Y4, Y0
	VFMADD231PD 32(DI)(AX*8), Y5, Y1
	MOVQ        DX, AX
	JMP         dotf32_loop8

dotf32_loop4:
	MOVQ AX, DX
	ADDQ $4, DX
	CMPQ DX, CX
	JGT  dotf32_reduce
	VCVTPS2PD   (SI)(AX*4), Y4
	VFMADD231PD (DI)(AX*8), Y4, Y0
	MOVQ        DX, AX
	JMP         dotf32_loop4

dotf32_reduce:
	VADDPD       Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0
	VPERMILPD    $1, X0, X1
	VADDSD       X1, X0, X0

dotf32_tail:
	CMPQ AX, CX
	JGE  dotf32_done
	VMOVSS      (SI)(AX*4), X4
	VCVTSS2SD   X4, X4, X4
	VFMADD231SD (DI)(AX*8), X4, X0
	INCQ        AX
	JMP         dotf32_tail

dotf32_done:
	VMOVSD X0, ret+48(FP)
	VZEROUPPER
	RET

// func dot4F32AVX2(x []float32, y0, y1, y2, y3 []float64) (s0, s1, s2, s3 float64)
TEXT ·dot4F32AVX2(SB), NOSPLIT, $0-152
	MOVQ   x_base+0(FP), SI
	MOVQ   y0_base+24(FP), DI
	MOVQ   y1_base+48(FP), R8
	MOVQ   y2_base+72(FP), R9
	MOVQ   y3_base+96(FP), R10
	MOVQ   x_len+8(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ   AX, AX

dot4f32_loop4:
	MOVQ AX, DX
	ADDQ $4, DX
	CMPQ DX, CX
	JGT  dot4f32_reduce
	VCVTPS2PD   (SI)(AX*4), Y4
	VFMADD231PD (DI)(AX*8), Y4, Y0
	VFMADD231PD (R8)(AX*8), Y4, Y1
	VFMADD231PD (R9)(AX*8), Y4, Y2
	VFMADD231PD (R10)(AX*8), Y4, Y3
	MOVQ        DX, AX
	JMP         dot4f32_loop4

dot4f32_reduce:
	VEXTRACTF128 $1, Y0, X4
	VADDPD       X4, X0, X0
	VPERMILPD    $1, X0, X4
	VADDSD       X4, X0, X0
	VEXTRACTF128 $1, Y1, X4
	VADDPD       X4, X1, X1
	VPERMILPD    $1, X1, X4
	VADDSD       X4, X1, X1
	VEXTRACTF128 $1, Y2, X4
	VADDPD       X4, X2, X2
	VPERMILPD    $1, X2, X4
	VADDSD       X4, X2, X2
	VEXTRACTF128 $1, Y3, X4
	VADDPD       X4, X3, X3
	VPERMILPD    $1, X3, X4
	VADDSD       X4, X3, X3

dot4f32_tail:
	CMPQ AX, CX
	JGE  dot4f32_done
	VMOVSS      (SI)(AX*4), X4
	VCVTSS2SD   X4, X4, X4
	VFMADD231SD (DI)(AX*8), X4, X0
	VFMADD231SD (R8)(AX*8), X4, X1
	VFMADD231SD (R9)(AX*8), X4, X2
	VFMADD231SD (R10)(AX*8), X4, X3
	INCQ        AX
	JMP         dot4f32_tail

dot4f32_done:
	VMOVSD X0, s0+120(FP)
	VMOVSD X1, s1+128(FP)
	VMOVSD X2, s2+136(FP)
	VMOVSD X3, s3+144(FP)
	VZEROUPPER
	RET

// func axpyRowsAVX2(dst, pk []float64, idx []int32, vals []float64)
// dst[r] += vals[c] * pk[idx[c]*R+r] for every c; R = len(dst).
// Batched CSF leaf fold: the caller guarantees the gathered rows lie
// within pk, and the shim trims vals to len(idx). R == 16 (the
// benchmark sweet spot, 4 ymm registers) keeps dst resident in
// registers across the whole leaf run; the generic path re-loads dst
// per leaf (L1-hot: dst is one fiber's accumulator row). Element
// order matches AxpyRowsGeneric: leaves in stream order, one FMA per
// leaf per element.
TEXT ·axpyRowsAVX2(SB), NOSPLIT, $0-96
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ pk_base+24(FP), SI
	MOVQ idx_base+48(FP), R8
	MOVQ idx_len+56(FP), R9
	MOVQ vals_base+72(FP), R10
	XORQ BX, BX
	CMPQ R9, $0
	JE   rows_done
	CMPQ CX, $16
	JE   rows16

rows_loop:
	CMPQ BX, R9
	JGE  rows_done
	MOVLQSX      (R8)(BX*4), DX
	IMULQ        CX, DX
	LEAQ         (SI)(DX*8), R11
	VBROADCASTSD (R10)(BX*8), Y0
	XORQ         AX, AX

rows_inner4:
	MOVQ AX, DX
	ADDQ $4, DX
	CMPQ DX, CX
	JGT  rows_inner_tail
	VMOVUPD     (DI)(AX*8), Y1
	VFMADD231PD (R11)(AX*8), Y0, Y1
	VMOVUPD     Y1, (DI)(AX*8)
	MOVQ        DX, AX
	JMP         rows_inner4

rows_inner_tail:
	CMPQ AX, CX
	JGE  rows_next
	VMOVSD      (DI)(AX*8), X1
	VFMADD231SD (R11)(AX*8), X0, X1
	VMOVSD      X1, (DI)(AX*8)
	INCQ        AX
	JMP         rows_inner_tail

rows_next:
	INCQ BX
	JMP  rows_loop

rows16:
	VMOVUPD (DI), Y1
	VMOVUPD 32(DI), Y2
	VMOVUPD 64(DI), Y3
	VMOVUPD 96(DI), Y4

rows16_loop:
	CMPQ BX, R9
	JGE  rows16_store
	MOVLQSX      (R8)(BX*4), DX
	SHLQ         $4, DX
	LEAQ         (SI)(DX*8), R11
	VBROADCASTSD (R10)(BX*8), Y0
	VFMADD231PD  (R11), Y0, Y1
	VFMADD231PD  32(R11), Y0, Y2
	VFMADD231PD  64(R11), Y0, Y3
	VFMADD231PD  96(R11), Y0, Y4
	INCQ         BX
	JMP          rows16_loop

rows16_store:
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	VMOVUPD Y3, 64(DI)
	VMOVUPD Y4, 96(DI)

rows_done:
	VZEROUPPER
	RET

// func axpyRowsF32AVX2(dst, pk []float64, idx []int32, vals []float32)
// axpyRowsAVX2 over a float32 value stream: each leaf value widens
// exactly (VCVTSS2SD) before the broadcast, so the accumulation
// arithmetic is identical to the float64 variant fed the re-rounded
// stream — the CSF f32-vs-f64 bitwise contract depends on this.
TEXT ·axpyRowsF32AVX2(SB), NOSPLIT, $0-96
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ pk_base+24(FP), SI
	MOVQ idx_base+48(FP), R8
	MOVQ idx_len+56(FP), R9
	MOVQ vals_base+72(FP), R10
	XORQ BX, BX
	CMPQ R9, $0
	JE   rowsf_done
	CMPQ CX, $16
	JE   rowsf16

rowsf_loop:
	CMPQ BX, R9
	JGE  rowsf_done
	MOVLQSX      (R8)(BX*4), DX
	IMULQ        CX, DX
	LEAQ         (SI)(DX*8), R11
	VCVTSS2SD    (R10)(BX*4), X0, X0
	VBROADCASTSD X0, Y0
	XORQ         AX, AX

rowsf_inner4:
	MOVQ AX, DX
	ADDQ $4, DX
	CMPQ DX, CX
	JGT  rowsf_inner_tail
	VMOVUPD     (DI)(AX*8), Y1
	VFMADD231PD (R11)(AX*8), Y0, Y1
	VMOVUPD     Y1, (DI)(AX*8)
	MOVQ        DX, AX
	JMP         rowsf_inner4

rowsf_inner_tail:
	CMPQ AX, CX
	JGE  rowsf_next
	VMOVSD      (DI)(AX*8), X1
	VFMADD231SD (R11)(AX*8), X0, X1
	VMOVSD      X1, (DI)(AX*8)
	INCQ        AX
	JMP         rowsf_inner_tail

rowsf_next:
	INCQ BX
	JMP  rowsf_loop

rowsf16:
	VMOVUPD (DI), Y1
	VMOVUPD 32(DI), Y2
	VMOVUPD 64(DI), Y3
	VMOVUPD 96(DI), Y4

rowsf16_loop:
	CMPQ BX, R9
	JGE  rowsf16_store
	MOVLQSX      (R8)(BX*4), DX
	SHLQ         $4, DX
	LEAQ         (SI)(DX*8), R11
	VCVTSS2SD    (R10)(BX*4), X0, X0
	VBROADCASTSD X0, Y0
	VFMADD231PD  (R11), Y0, Y1
	VFMADD231PD  32(R11), Y0, Y2
	VFMADD231PD  64(R11), Y0, Y3
	VFMADD231PD  96(R11), Y0, Y4
	INCQ         BX
	JMP          rowsf16_loop

rowsf16_store:
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	VMOVUPD Y3, 64(DI)
	VMOVUPD Y4, 96(DI)

rowsf_done:
	VZEROUPPER
	RET

// func axpy2RowsAVX2(o, p, d, pk []float64, idx []int32, vals []float64)
// For each leaf c in order, with R = len(d) and j = idx[c]*R:
// o[j+r] += vals[c]*p[r] and d[r] += vals[c]*pk[j+r]. The batched
// all-modes CSF leaf fold: the caller guarantees the rows lie within
// o and pk and that o overlaps none of p, d and pk; the shim trims p
// to R and vals to len(idx). Every element gets one VFMADD231 with
// the broadcast value, the FMA of axpyAVX2 on the o rows and of
// axpyRowsAVX2 on d, so the result is bitwise one axpy per leaf plus
// one axpyRows call. R == 16 keeps p and d in eight ymm registers for
// the whole fiber (the o rows still load and store per leaf, so a
// repeated index sees the previous leaf's sum); the general path
// walks each leaf in 4-wide steps and a scalar tail, re-loading the
// L1-hot d per leaf.
TEXT ·axpy2RowsAVX2(SB), NOSPLIT, $0-144
	MOVQ  o_base+0(FP), DI
	MOVQ  p_base+24(FP), SI
	MOVQ  d_base+48(FP), R8
	MOVQ  d_len+56(FP), CX
	MOVQ  pk_base+72(FP), R9
	MOVQ  idx_base+96(FP), R10
	MOVQ  idx_len+104(FP), BX
	MOVQ  vals_base+120(FP), R12
	TESTQ BX, BX
	JE    rows2_done
	CMPQ  CX, $16
	JE    rows216
	MOVQ  CX, R11
	ANDQ  $-4, R11

rows2_leaf:
	MOVLQSX      (R10), DX
	IMULQ        CX, DX
	SHLQ         $3, DX
	LEAQ         (DI)(DX*1), R13
	ADDQ         R9, DX
	VBROADCASTSD (R12), Y0
	XORQ         AX, AX

rows2_inner4:
	CMPQ AX, R11
	JGE  rows2_inner_tail
	VMOVUPD     (R13)(AX*8), Y1
	VMOVUPD     (R8)(AX*8), Y2
	VFMADD231PD (SI)(AX*8), Y0, Y1
	VFMADD231PD (DX)(AX*8), Y0, Y2
	VMOVUPD     Y1, (R13)(AX*8)
	VMOVUPD     Y2, (R8)(AX*8)
	ADDQ        $4, AX
	JMP         rows2_inner4

rows2_inner_tail:
	CMPQ AX, CX
	JGE  rows2_next
	VMOVSD      (R13)(AX*8), X1
	VMOVSD      (R8)(AX*8), X2
	VFMADD231SD (SI)(AX*8), X0, X1
	VFMADD231SD (DX)(AX*8), X0, X2
	VMOVSD      X1, (R13)(AX*8)
	VMOVSD      X2, (R8)(AX*8)
	INCQ        AX
	JMP         rows2_inner_tail

rows2_next:
	ADDQ $4, R10
	ADDQ $8, R12
	DECQ BX
	JNE  rows2_leaf
	JMP  rows2_done

rows216:
	VMOVUPD (SI), Y4
	VMOVUPD 32(SI), Y5
	VMOVUPD 64(SI), Y6
	VMOVUPD 96(SI), Y7
	VMOVUPD (R8), Y8
	VMOVUPD 32(R8), Y9
	VMOVUPD 64(R8), Y10
	VMOVUPD 96(R8), Y11

rows216_leaf:
	MOVLQSX      (R10), DX
	SHLQ         $7, DX
	LEAQ         (DI)(DX*1), R13
	ADDQ         R9, DX
	VBROADCASTSD (R12), Y0
	VMOVUPD      (R13), Y1
	VMOVUPD      32(R13), Y2
	VMOVUPD      64(R13), Y3
	VMOVUPD      96(R13), Y12
	VFMADD231PD  Y4, Y0, Y1
	VFMADD231PD  Y5, Y0, Y2
	VFMADD231PD  Y6, Y0, Y3
	VFMADD231PD  Y7, Y0, Y12
	VMOVUPD      Y1, (R13)
	VMOVUPD      Y2, 32(R13)
	VMOVUPD      Y3, 64(R13)
	VMOVUPD      Y12, 96(R13)
	VFMADD231PD  (DX), Y0, Y8
	VFMADD231PD  32(DX), Y0, Y9
	VFMADD231PD  64(DX), Y0, Y10
	VFMADD231PD  96(DX), Y0, Y11
	ADDQ         $4, R10
	ADDQ         $8, R12
	DECQ         BX
	JNE          rows216_leaf
	VMOVUPD      Y8, (R8)
	VMOVUPD      Y9, 32(R8)
	VMOVUPD      Y10, 64(R8)
	VMOVUPD      Y11, 96(R8)

rows2_done:
	VZEROUPPER
	RET

// func axpy2RowsF32AVX2(o, p, d, pk []float64, idx []int32, vals []float32)
// axpy2RowsAVX2 over a float32 value stream: each leaf value widens
// exactly (VCVTSS2SD) before the broadcast, as in axpyRowsF32AVX2, so
// the arithmetic is the float64 variant's fed the re-rounded stream.
TEXT ·axpy2RowsF32AVX2(SB), NOSPLIT, $0-144
	MOVQ  o_base+0(FP), DI
	MOVQ  p_base+24(FP), SI
	MOVQ  d_base+48(FP), R8
	MOVQ  d_len+56(FP), CX
	MOVQ  pk_base+72(FP), R9
	MOVQ  idx_base+96(FP), R10
	MOVQ  idx_len+104(FP), BX
	MOVQ  vals_base+120(FP), R12
	TESTQ BX, BX
	JE    rows2f_done
	CMPQ  CX, $16
	JE    rows2f16
	MOVQ  CX, R11
	ANDQ  $-4, R11

rows2f_leaf:
	MOVLQSX      (R10), DX
	IMULQ        CX, DX
	SHLQ         $3, DX
	LEAQ         (DI)(DX*1), R13
	ADDQ         R9, DX
	VCVTSS2SD    (R12), X0, X0
	VBROADCASTSD X0, Y0
	XORQ         AX, AX

rows2f_inner4:
	CMPQ AX, R11
	JGE  rows2f_inner_tail
	VMOVUPD     (R13)(AX*8), Y1
	VMOVUPD     (R8)(AX*8), Y2
	VFMADD231PD (SI)(AX*8), Y0, Y1
	VFMADD231PD (DX)(AX*8), Y0, Y2
	VMOVUPD     Y1, (R13)(AX*8)
	VMOVUPD     Y2, (R8)(AX*8)
	ADDQ        $4, AX
	JMP         rows2f_inner4

rows2f_inner_tail:
	CMPQ AX, CX
	JGE  rows2f_next
	VMOVSD      (R13)(AX*8), X1
	VMOVSD      (R8)(AX*8), X2
	VFMADD231SD (SI)(AX*8), X0, X1
	VFMADD231SD (DX)(AX*8), X0, X2
	VMOVSD      X1, (R13)(AX*8)
	VMOVSD      X2, (R8)(AX*8)
	INCQ        AX
	JMP         rows2f_inner_tail

rows2f_next:
	ADDQ $4, R10
	ADDQ $4, R12
	DECQ BX
	JNE  rows2f_leaf
	JMP  rows2f_done

rows2f16:
	VMOVUPD (SI), Y4
	VMOVUPD 32(SI), Y5
	VMOVUPD 64(SI), Y6
	VMOVUPD 96(SI), Y7
	VMOVUPD (R8), Y8
	VMOVUPD 32(R8), Y9
	VMOVUPD 64(R8), Y10
	VMOVUPD 96(R8), Y11

rows2f16_leaf:
	MOVLQSX      (R10), DX
	SHLQ         $7, DX
	LEAQ         (DI)(DX*1), R13
	ADDQ         R9, DX
	VCVTSS2SD    (R12), X0, X0
	VBROADCASTSD X0, Y0
	VMOVUPD      (R13), Y1
	VMOVUPD      32(R13), Y2
	VMOVUPD      64(R13), Y3
	VMOVUPD      96(R13), Y12
	VFMADD231PD  Y4, Y0, Y1
	VFMADD231PD  Y5, Y0, Y2
	VFMADD231PD  Y6, Y0, Y3
	VFMADD231PD  Y7, Y0, Y12
	VMOVUPD      Y1, (R13)
	VMOVUPD      Y2, 32(R13)
	VMOVUPD      Y3, 64(R13)
	VMOVUPD      Y12, 96(R13)
	VFMADD231PD  (DX), Y0, Y8
	VFMADD231PD  32(DX), Y0, Y9
	VFMADD231PD  64(DX), Y0, Y10
	VFMADD231PD  96(DX), Y0, Y11
	ADDQ         $4, R10
	ADDQ         $4, R12
	DECQ         BX
	JNE          rows2f16_leaf
	VMOVUPD      Y8, (R8)
	VMOVUPD      Y9, 32(R8)
	VMOVUPD      Y10, 64(R8)
	VMOVUPD      Y11, 96(R8)

rows2f_done:
	VZEROUPPER
	RET
