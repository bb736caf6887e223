//go:build amd64 && !purego

#include "textflag.h"

// The 512-bit register tiles (AVX512F only). Both keep a block of C in
// zmm accumulators for the whole call and give every output element the
// arithmetic of the AVX2 kernel it replaces, so a tile and the blocked
// AVX2 path compute the same bits:
//
//   - gemm8x16AVX512: one FMA chain per element over the k-steps, in
//     ascending order, continuing from the value C holds on entry (the
//     chain Axpy4x4, Axpy4x1, Axpy1x4 and Axpy build, four k-steps at a
//     time);
//   - dot3x16AVX512: per output, dot4AVX2's four-lane FMA chain over
//     4-row steps in order and its (l0+l2)+(l1+l3) lane reduction; two
//     outputs share one zmm, one per 256-bit half, so each lane chain is
//     exactly the ymm chain. The Go shim folds the scalar tail.
//
// The Go shims in dispatch_amd64.go check the slices against the
// strides before the call; the assembly trusts them.

// The scatter order of a reduced row: dot3x16AVX512's reduction leaves
// columns 0,4,1,5,2,6,3,7 (and 8,12,9,13,... in the second half) in the
// lanes of one zmm.
DATA dot3x16Cols<>+0(SB)/8, $0
DATA dot3x16Cols<>+8(SB)/8, $4
DATA dot3x16Cols<>+16(SB)/8, $1
DATA dot3x16Cols<>+24(SB)/8, $5
DATA dot3x16Cols<>+32(SB)/8, $2
DATA dot3x16Cols<>+40(SB)/8, $6
DATA dot3x16Cols<>+48(SB)/8, $3
DATA dot3x16Cols<>+56(SB)/8, $7
GLOBL dot3x16Cols<>(SB), RODATA|NOPTR, $64

// func gemm8x16AVX512(c []float64, ldc int, a []float64, lda int, b []float64, bj, bl, k int)
// For i < 8, j < 16 and l ascending from 0 to k-1:
//   c[i+j*ldc] = fma(a[i+l*lda], b[j*bj+l*bl], c[i+j*ldc]).
// Z0-Z15 hold C's 16 columns of 8 rows; each k-step loads one 8-row
// line of A and broadcasts its 16 B values from memory. B's columns are
// reached from four bases (columns 0, 4, 8, 12) at 0, 1, 2 and 3
// column strides. A's line 16 k-steps ahead is prefetched: when A is
// a tensor unfolding streamed from memory, its lines are a column
// stride apart.
TEXT ·gemm8x16AVX512(SB), NOSPLIT, $0-112
	MOVQ c_base+0(FP), DI
	MOVQ ldc+24(FP), R8
	SHLQ $3, R8
	VMOVUPD (DI), Z0
	ADDQ    R8, DI
	VMOVUPD (DI), Z1
	ADDQ    R8, DI
	VMOVUPD (DI), Z2
	ADDQ    R8, DI
	VMOVUPD (DI), Z3
	ADDQ    R8, DI
	VMOVUPD (DI), Z4
	ADDQ    R8, DI
	VMOVUPD (DI), Z5
	ADDQ    R8, DI
	VMOVUPD (DI), Z6
	ADDQ    R8, DI
	VMOVUPD (DI), Z7
	ADDQ    R8, DI
	VMOVUPD (DI), Z8
	ADDQ    R8, DI
	VMOVUPD (DI), Z9
	ADDQ    R8, DI
	VMOVUPD (DI), Z10
	ADDQ    R8, DI
	VMOVUPD (DI), Z11
	ADDQ    R8, DI
	VMOVUPD (DI), Z12
	ADDQ    R8, DI
	VMOVUPD (DI), Z13
	ADDQ    R8, DI
	VMOVUPD (DI), Z14
	ADDQ    R8, DI
	VMOVUPD (DI), Z15

	MOVQ a_base+32(FP), SI
	MOVQ lda+56(FP), R9
	SHLQ $3, R9
	MOVQ b_base+64(FP), R10
	MOVQ bj+88(FP), R11
	SHLQ $3, R11
	LEAQ (R11)(R11*2), R13
	LEAQ (R10)(R11*4), AX
	LEAQ (AX)(R11*4), BX
	LEAQ (BX)(R11*4), DX
	MOVQ bl+96(FP), R12
	SHLQ $3, R12
	MOVQ  R9, DI
	SHLQ  $4, DI
	MOVQ  k+104(FP), CX
	TESTQ CX, CX
	JLE   g8x16_store

g8x16_loop:
	PREFETCHT0       (SI)(DI*1)
	VMOVUPD          (SI), Z16
	VFMADD231PD.BCST (R10), Z16, Z0
	VFMADD231PD.BCST (R10)(R11*1), Z16, Z1
	VFMADD231PD.BCST (R10)(R11*2), Z16, Z2
	VFMADD231PD.BCST (R10)(R13*1), Z16, Z3
	VFMADD231PD.BCST (AX), Z16, Z4
	VFMADD231PD.BCST (AX)(R11*1), Z16, Z5
	VFMADD231PD.BCST (AX)(R11*2), Z16, Z6
	VFMADD231PD.BCST (AX)(R13*1), Z16, Z7
	VFMADD231PD.BCST (BX), Z16, Z8
	VFMADD231PD.BCST (BX)(R11*1), Z16, Z9
	VFMADD231PD.BCST (BX)(R11*2), Z16, Z10
	VFMADD231PD.BCST (BX)(R13*1), Z16, Z11
	VFMADD231PD.BCST (DX), Z16, Z12
	VFMADD231PD.BCST (DX)(R11*1), Z16, Z13
	VFMADD231PD.BCST (DX)(R11*2), Z16, Z14
	VFMADD231PD.BCST (DX)(R13*1), Z16, Z15
	ADDQ             R9, SI
	ADDQ             R12, R10
	ADDQ             R12, AX
	ADDQ             R12, BX
	ADDQ             R12, DX
	DECQ             CX
	JNZ              g8x16_loop

g8x16_store:
	MOVQ    c_base+0(FP), DI
	VMOVUPD Z0, (DI)
	ADDQ    R8, DI
	VMOVUPD Z1, (DI)
	ADDQ    R8, DI
	VMOVUPD Z2, (DI)
	ADDQ    R8, DI
	VMOVUPD Z3, (DI)
	ADDQ    R8, DI
	VMOVUPD Z4, (DI)
	ADDQ    R8, DI
	VMOVUPD Z5, (DI)
	ADDQ    R8, DI
	VMOVUPD Z6, (DI)
	ADDQ    R8, DI
	VMOVUPD Z7, (DI)
	ADDQ    R8, DI
	VMOVUPD Z8, (DI)
	ADDQ    R8, DI
	VMOVUPD Z9, (DI)
	ADDQ    R8, DI
	VMOVUPD Z10, (DI)
	ADDQ    R8, DI
	VMOVUPD Z11, (DI)
	ADDQ    R8, DI
	VMOVUPD Z12, (DI)
	ADDQ    R8, DI
	VMOVUPD Z13, (DI)
	ADDQ    R8, DI
	VMOVUPD Z14, (DI)
	ADDQ    R8, DI
	VMOVUPD Z15, (DI)
	VZEROUPPER
	RET

// func dot3x16AVX512(c []float64, ldc int, a []float64, lda int, b []float64, ldb, m int)
// For i < 3 and j < 16, c[i+j*ldc] = the four-lane dot of
// a[i*lda : i*lda+m] and b[j*ldb : j*ldb+m] as dot4AVX2 forms it before
// its scalar tail: m must be a multiple of 4. Accumulator Z(8i+p) holds
// output (i, 2p) in its low half and (i, 2p+1) in its high half; each
// 4-row step broadcasts A's three 4-row segments to both halves and
// pairs B's columns 2p and 2p+1 in one zmm. B's columns are reached
// from four bases (columns 0, 4, 8, 12) at 0, 1, 2 and 3 column
// strides. The next tile's three A columns (3*lda on) are prefetched
// in step with the loads, so a caller sweeping A's columns in tiles
// finds each one in L1.
TEXT ·dot3x16AVX512(SB), NOSPLIT, $0-104
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15
	VPXORQ Z16, Z16, Z16
	VPXORQ Z17, Z17, Z17
	VPXORQ Z18, Z18, Z18
	VPXORQ Z19, Z19, Z19
	VPXORQ Z20, Z20, Z20
	VPXORQ Z21, Z21, Z21
	VPXORQ Z22, Z22, Z22
	VPXORQ Z23, Z23, Z23

	MOVQ a_base+32(FP), SI
	MOVQ lda+56(FP), R9
	SHLQ $3, R9
	MOVQ b_base+64(FP), R10
	MOVQ ldb+88(FP), R11
	SHLQ $3, R11
	LEAQ (R11)(R11*2), R13
	LEAQ (R10)(R11*4), AX
	LEAQ (AX)(R11*4), BX
	LEAQ (BX)(R11*4), DX
	LEAQ (R9)(R9*2), DI
	ADDQ SI, DI
	MOVQ m+96(FP), CX
	SHRQ $2, CX
	JZ   d3x16_reduce

d3x16_loop:
	PREFETCHT0      (DI)
	PREFETCHT0      (DI)(R9*1)
	PREFETCHT0      (DI)(R9*2)
	VBROADCASTF64X4 (SI), Z24
	VBROADCASTF64X4 (SI)(R9*1), Z25
	VBROADCASTF64X4 (SI)(R9*2), Z26

	VBROADCASTF64X4 (R10), Z27
	VINSERTF64X4    $1, (R10)(R11*1), Z27, Z27
	VFMADD231PD     Z27, Z24, Z0
	VFMADD231PD     Z27, Z25, Z8
	VFMADD231PD     Z27, Z26, Z16

	VBROADCASTF64X4 (R10)(R11*2), Z28
	VINSERTF64X4    $1, (R10)(R13*1), Z28, Z28
	VFMADD231PD     Z28, Z24, Z1
	VFMADD231PD     Z28, Z25, Z9
	VFMADD231PD     Z28, Z26, Z17

	VBROADCASTF64X4 (AX), Z29
	VINSERTF64X4    $1, (AX)(R11*1), Z29, Z29
	VFMADD231PD     Z29, Z24, Z2
	VFMADD231PD     Z29, Z25, Z10
	VFMADD231PD     Z29, Z26, Z18

	VBROADCASTF64X4 (AX)(R11*2), Z30
	VINSERTF64X4    $1, (AX)(R13*1), Z30, Z30
	VFMADD231PD     Z30, Z24, Z3
	VFMADD231PD     Z30, Z25, Z11
	VFMADD231PD     Z30, Z26, Z19

	VBROADCASTF64X4 (BX), Z31
	VINSERTF64X4    $1, (BX)(R11*1), Z31, Z31
	VFMADD231PD     Z31, Z24, Z4
	VFMADD231PD     Z31, Z25, Z12
	VFMADD231PD     Z31, Z26, Z20

	VBROADCASTF64X4 (BX)(R11*2), Z27
	VINSERTF64X4    $1, (BX)(R13*1), Z27, Z27
	VFMADD231PD     Z27, Z24, Z5
	VFMADD231PD     Z27, Z25, Z13
	VFMADD231PD     Z27, Z26, Z21

	VBROADCASTF64X4 (DX), Z28
	VINSERTF64X4    $1, (DX)(R11*1), Z28, Z28
	VFMADD231PD     Z28, Z24, Z6
	VFMADD231PD     Z28, Z25, Z14
	VFMADD231PD     Z28, Z26, Z22

	VBROADCASTF64X4 (DX)(R11*2), Z29
	VINSERTF64X4    $1, (DX)(R13*1), Z29, Z29
	VFMADD231PD     Z29, Z24, Z7
	VFMADD231PD     Z29, Z25, Z15
	VFMADD231PD     Z29, Z26, Z23

	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, R10
	ADDQ $32, AX
	ADDQ $32, BX
	ADDQ $32, DX
	DECQ CX
	JNZ  d3x16_loop

d3x16_reduce:
	// Per row: 128-bit lane pairs add (l0+l2, l1+l3) for four columns
	// at a time, then adjacent lanes add, leaving columns
	// 0,4,1,5,2,6,3,7 and 8,12,9,13,10,14,11,15 in two registers.
	VSHUFF64X2 $0x88, Z1, Z0, Z24
	VSHUFF64X2 $0xDD, Z1, Z0, Z25
	VADDPD     Z25, Z24, Z0
	VSHUFF64X2 $0x88, Z3, Z2, Z24
	VSHUFF64X2 $0xDD, Z3, Z2, Z25
	VADDPD     Z25, Z24, Z1
	VSHUFF64X2 $0x88, Z5, Z4, Z24
	VSHUFF64X2 $0xDD, Z5, Z4, Z25
	VADDPD     Z25, Z24, Z2
	VSHUFF64X2 $0x88, Z7, Z6, Z24
	VSHUFF64X2 $0xDD, Z7, Z6, Z25
	VADDPD     Z25, Z24, Z3
	VUNPCKLPD  Z1, Z0, Z24
	VUNPCKHPD  Z1, Z0, Z25
	VADDPD     Z25, Z24, Z0
	VUNPCKLPD  Z3, Z2, Z24
	VUNPCKHPD  Z3, Z2, Z25
	VADDPD     Z25, Z24, Z1

	VSHUFF64X2 $0x88, Z9, Z8, Z24
	VSHUFF64X2 $0xDD, Z9, Z8, Z25
	VADDPD     Z25, Z24, Z8
	VSHUFF64X2 $0x88, Z11, Z10, Z24
	VSHUFF64X2 $0xDD, Z11, Z10, Z25
	VADDPD     Z25, Z24, Z9
	VSHUFF64X2 $0x88, Z13, Z12, Z24
	VSHUFF64X2 $0xDD, Z13, Z12, Z25
	VADDPD     Z25, Z24, Z10
	VSHUFF64X2 $0x88, Z15, Z14, Z24
	VSHUFF64X2 $0xDD, Z15, Z14, Z25
	VADDPD     Z25, Z24, Z11
	VUNPCKLPD  Z9, Z8, Z24
	VUNPCKHPD  Z9, Z8, Z25
	VADDPD     Z25, Z24, Z8
	VUNPCKLPD  Z11, Z10, Z24
	VUNPCKHPD  Z11, Z10, Z25
	VADDPD     Z25, Z24, Z9

	VSHUFF64X2 $0x88, Z17, Z16, Z24
	VSHUFF64X2 $0xDD, Z17, Z16, Z25
	VADDPD     Z25, Z24, Z16
	VSHUFF64X2 $0x88, Z19, Z18, Z24
	VSHUFF64X2 $0xDD, Z19, Z18, Z25
	VADDPD     Z25, Z24, Z17
	VSHUFF64X2 $0x88, Z21, Z20, Z24
	VSHUFF64X2 $0xDD, Z21, Z20, Z25
	VADDPD     Z25, Z24, Z18
	VSHUFF64X2 $0x88, Z23, Z22, Z24
	VSHUFF64X2 $0xDD, Z23, Z22, Z25
	VADDPD     Z25, Z24, Z19
	VUNPCKLPD  Z17, Z16, Z24
	VUNPCKHPD  Z17, Z16, Z25
	VADDPD     Z25, Z24, Z16
	VUNPCKLPD  Z19, Z18, Z24
	VUNPCKHPD  Z19, Z18, Z25
	VADDPD     Z25, Z24, Z17

	// Scatter: lane q of a reduced register goes to column cols[q]
	// (plus 8 for the second half), row i, at c + (i + col*ldc)*8.
	MOVQ         c_base+0(FP), DI
	MOVQ         ldc+24(FP), R8
	VPBROADCASTQ R8, Z26
	VPMULUDQ     dot3x16Cols<>(SB), Z26, Z26
	SHLQ         $6, R8
	ADDQ         DI, R8
	KXNORW       K1, K1, K1
	VSCATTERQPD  Z0, K1, (DI)(Z26*8)
	KXNORW       K1, K1, K1
	VSCATTERQPD  Z1, K1, (R8)(Z26*8)
	KXNORW       K1, K1, K1
	VSCATTERQPD  Z8, K1, 8(DI)(Z26*8)
	KXNORW       K1, K1, K1
	VSCATTERQPD  Z9, K1, 8(R8)(Z26*8)
	KXNORW       K1, K1, K1
	VSCATTERQPD  Z16, K1, 16(DI)(Z26*8)
	KXNORW       K1, K1, K1
	VSCATTERQPD  Z17, K1, 16(R8)(Z26*8)
	VZEROUPPER
	RET
