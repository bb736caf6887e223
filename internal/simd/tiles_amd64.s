//go:build amd64 && !purego

#include "textflag.h"

// The 512-bit register tiles (AVX512F only). Each keeps a block of C in
// zmm accumulators for the whole call and gives every output element the
// arithmetic of the AVX2 kernel it replaces, so a tile and the blocked
// AVX2 path compute the same bits:
//
//   - gemm16x8AVX512: one FMA chain per element over the k-steps, in
//     ascending order, continuing from the value C holds on entry (the
//     chain Axpy4x4, Axpy4x1, Axpy1x4 and Axpy build, four k-steps at a
//     time);
//   - dot3x16AVX512 and dot6x8AVX512: per output, dot4AVX2's four-lane
//     FMA chain over 4-row steps in order and its (l0+l2)+(l1+l3) lane
//     reduction; two outputs share one zmm, one per 256-bit half, so
//     each lane chain is exactly the ymm chain. The Go shims fold the
//     scalar tail.
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

// func gemm16x8AVX512(c []float64, ldc int, a []float64, lda int, b []float64, bj, bl, k int)
// For i < 16, j < 8 and l ascending from 0 to k-1:
//   c[i+j*ldc] = fma(a[i+l*lda], b[j*bj+l*bl], c[i+j*ldc]).
// Z(2j) and Z(2j+1) hold rows 0-7 and 8-15 of C's column j; each k-step
// loads two 8-row lines of A and broadcasts its 8 B values into
// registers, each feeding two FMAs. B's columns are reached from two
// bases (columns 0 and 4) at 0, 1, 2 and 3 column strides. A's lines 16
// k-steps ahead are prefetched: when A is a tensor unfolding streamed
// from memory, its lines are a column stride apart.
TEXT ·gemm16x8AVX512(SB), NOSPLIT, $0-112
	MOVQ c_base+0(FP), DI
	MOVQ ldc+24(FP), R8
	SHLQ $3, R8
	VMOVUPD (DI), Z0
	VMOVUPD 64(DI), Z1
	ADDQ    R8, DI
	VMOVUPD (DI), Z2
	VMOVUPD 64(DI), Z3
	ADDQ    R8, DI
	VMOVUPD (DI), Z4
	VMOVUPD 64(DI), Z5
	ADDQ    R8, DI
	VMOVUPD (DI), Z6
	VMOVUPD 64(DI), Z7
	ADDQ    R8, DI
	VMOVUPD (DI), Z8
	VMOVUPD 64(DI), Z9
	ADDQ    R8, DI
	VMOVUPD (DI), Z10
	VMOVUPD 64(DI), Z11
	ADDQ    R8, DI
	VMOVUPD (DI), Z12
	VMOVUPD 64(DI), Z13
	ADDQ    R8, DI
	VMOVUPD (DI), Z14
	VMOVUPD 64(DI), Z15

	MOVQ a_base+32(FP), SI
	MOVQ lda+56(FP), R9
	SHLQ $3, R9
	MOVQ b_base+64(FP), R10
	MOVQ bj+88(FP), R11
	SHLQ $3, R11
	LEAQ (R11)(R11*2), R13
	LEAQ (R10)(R11*4), AX
	MOVQ bl+96(FP), R12
	SHLQ $3, R12
	MOVQ  R9, DI
	SHLQ  $4, DI
	MOVQ  k+104(FP), CX
	TESTQ CX, CX
	JLE   g16x8_store

g16x8_loop:
	PREFETCHT0   (SI)(DI*1)
	PREFETCHT0   64(SI)(DI*1)
	VMOVUPD      (SI), Z16
	VMOVUPD      64(SI), Z17
	VBROADCASTSD (R10), Z18
	VFMADD231PD  Z18, Z16, Z0
	VFMADD231PD  Z18, Z17, Z1
	VBROADCASTSD (R10)(R11*1), Z19
	VFMADD231PD  Z19, Z16, Z2
	VFMADD231PD  Z19, Z17, Z3
	VBROADCASTSD (R10)(R11*2), Z20
	VFMADD231PD  Z20, Z16, Z4
	VFMADD231PD  Z20, Z17, Z5
	VBROADCASTSD (R10)(R13*1), Z21
	VFMADD231PD  Z21, Z16, Z6
	VFMADD231PD  Z21, Z17, Z7
	VBROADCASTSD (AX), Z22
	VFMADD231PD  Z22, Z16, Z8
	VFMADD231PD  Z22, Z17, Z9
	VBROADCASTSD (AX)(R11*1), Z23
	VFMADD231PD  Z23, Z16, Z10
	VFMADD231PD  Z23, Z17, Z11
	VBROADCASTSD (AX)(R11*2), Z24
	VFMADD231PD  Z24, Z16, Z12
	VFMADD231PD  Z24, Z17, Z13
	VBROADCASTSD (AX)(R13*1), Z25
	VFMADD231PD  Z25, Z16, Z14
	VFMADD231PD  Z25, Z17, Z15
	ADDQ         R9, SI
	ADDQ         R12, R10
	ADDQ         R12, AX
	DECQ         CX
	JNZ          g16x8_loop

g16x8_store:
	MOVQ    c_base+0(FP), DI
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	ADDQ    R8, DI
	VMOVUPD Z2, (DI)
	VMOVUPD Z3, 64(DI)
	ADDQ    R8, DI
	VMOVUPD Z4, (DI)
	VMOVUPD Z5, 64(DI)
	ADDQ    R8, DI
	VMOVUPD Z6, (DI)
	VMOVUPD Z7, 64(DI)
	ADDQ    R8, DI
	VMOVUPD Z8, (DI)
	VMOVUPD Z9, 64(DI)
	ADDQ    R8, DI
	VMOVUPD Z10, (DI)
	VMOVUPD Z11, 64(DI)
	ADDQ    R8, DI
	VMOVUPD Z12, (DI)
	VMOVUPD Z13, 64(DI)
	ADDQ    R8, DI
	VMOVUPD Z14, (DI)
	VMOVUPD Z15, 64(DI)
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

// func dot6x8AVX512(c []float64, ldc int, a []float64, lda int, b []float64, ldb, m int)
// For i < 6 and j < 8, c[i+j*ldc] = the four-lane dot of
// a[i*lda : i*lda+m] and b[j*ldb : j*ldb+m] as dot4AVX2 forms it before
// its scalar tail: m must be a multiple of 4. Accumulator Z(3j+q) holds
// column j's outputs of rows 0 and 2 (q = 0), 1 and 3 (q = 1) or 4 and
// 5 (q = 2), one per 256-bit half; each 4-row step pairs those A
// segments in three zmm and broadcasts B's column j to both halves. B's
// columns are reached from two bases (columns 0 and 4) at 0, 1, 2 and 3
// column strides, A's rows from one at 0-5 row strides. The next tile's
// six A columns (6*lda on) are prefetched in step with the loads, so a
// caller sweeping A's columns in tiles finds each one in L1.
TEXT ·dot6x8AVX512(SB), NOSPLIT, $0-104
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
	LEAQ (R9)(R9*2), R12
	LEAQ (R9)(R9*4), R14
	MOVQ b_base+64(FP), R10
	MOVQ ldb+88(FP), R11
	SHLQ $3, R11
	LEAQ (R11)(R11*2), R13
	LEAQ (R10)(R11*4), AX
	LEAQ (R12)(R12*1), DI
	ADDQ SI, DI
	MOVQ m+96(FP), CX
	SHRQ $2, CX
	JZ   d6x8_reduce

d6x8_loop:
	PREFETCHT0      (DI)
	PREFETCHT0      (DI)(R9*1)
	PREFETCHT0      (DI)(R9*2)
	PREFETCHT0      (DI)(R12*1)
	PREFETCHT0      (DI)(R9*4)
	PREFETCHT0      (DI)(R14*1)
	VBROADCASTF64X4 (SI), Z24
	VINSERTF64X4    $1, (SI)(R9*2), Z24, Z24
	VBROADCASTF64X4 (SI)(R9*1), Z25
	VINSERTF64X4    $1, (SI)(R12*1), Z25, Z25
	VBROADCASTF64X4 (SI)(R9*4), Z26
	VINSERTF64X4    $1, (SI)(R14*1), Z26, Z26

	VBROADCASTF64X4 (R10), Z27
	VFMADD231PD     Z27, Z24, Z0
	VFMADD231PD     Z27, Z25, Z1
	VFMADD231PD     Z27, Z26, Z2

	VBROADCASTF64X4 (R10)(R11*1), Z28
	VFMADD231PD     Z28, Z24, Z3
	VFMADD231PD     Z28, Z25, Z4
	VFMADD231PD     Z28, Z26, Z5

	VBROADCASTF64X4 (R10)(R11*2), Z27
	VFMADD231PD     Z27, Z24, Z6
	VFMADD231PD     Z27, Z25, Z7
	VFMADD231PD     Z27, Z26, Z8

	VBROADCASTF64X4 (R10)(R13*1), Z28
	VFMADD231PD     Z28, Z24, Z9
	VFMADD231PD     Z28, Z25, Z10
	VFMADD231PD     Z28, Z26, Z11

	VBROADCASTF64X4 (AX), Z27
	VFMADD231PD     Z27, Z24, Z12
	VFMADD231PD     Z27, Z25, Z13
	VFMADD231PD     Z27, Z26, Z14

	VBROADCASTF64X4 (AX)(R11*1), Z28
	VFMADD231PD     Z28, Z24, Z15
	VFMADD231PD     Z28, Z25, Z16
	VFMADD231PD     Z28, Z26, Z17

	VBROADCASTF64X4 (AX)(R11*2), Z27
	VFMADD231PD     Z27, Z24, Z18
	VFMADD231PD     Z27, Z25, Z19
	VFMADD231PD     Z27, Z26, Z20

	VBROADCASTF64X4 (AX)(R13*1), Z28
	VFMADD231PD     Z28, Z24, Z21
	VFMADD231PD     Z28, Z25, Z22
	VFMADD231PD     Z28, Z26, Z23

	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, R10
	ADDQ $32, AX
	DECQ CX
	JNZ  d6x8_loop

d6x8_reduce:
	// Per column j: the 128-bit lane pairs of rows 0,2,4 and of rows
	// 1,3,5 add (l0+l2, l1+l3), then adjacent lanes of the two add,
	// leaving rows 0-5 of column j in lanes 0-5 (lanes 6 and 7 repeat
	// rows 4 and 5), stored under the 6-lane mask.
	MOVQ  c_base+0(FP), DI
	MOVQ  ldc+24(FP), R8
	SHLQ  $3, R8
	MOVL  $0x3f, DX
	KMOVW DX, K1
	VSHUFF64X2 $0x08, Z2, Z0, Z24
	VSHUFF64X2 $0x5d, Z2, Z0, Z25
	VADDPD     Z25, Z24, Z24
	VSHUFF64X2 $0xa8, Z2, Z1, Z26
	VSHUFF64X2 $0xfd, Z2, Z1, Z27
	VADDPD     Z27, Z26, Z26
	VUNPCKLPD  Z26, Z24, Z28
	VUNPCKHPD  Z26, Z24, Z29
	VADDPD     Z29, Z28, Z28
	VMOVUPD    Z28, K1, (DI)
	ADDQ       R8, DI
	VSHUFF64X2 $0x08, Z5, Z3, Z24
	VSHUFF64X2 $0x5d, Z5, Z3, Z25
	VADDPD     Z25, Z24, Z24
	VSHUFF64X2 $0xa8, Z5, Z4, Z26
	VSHUFF64X2 $0xfd, Z5, Z4, Z27
	VADDPD     Z27, Z26, Z26
	VUNPCKLPD  Z26, Z24, Z28
	VUNPCKHPD  Z26, Z24, Z29
	VADDPD     Z29, Z28, Z28
	VMOVUPD    Z28, K1, (DI)
	ADDQ       R8, DI
	VSHUFF64X2 $0x08, Z8, Z6, Z24
	VSHUFF64X2 $0x5d, Z8, Z6, Z25
	VADDPD     Z25, Z24, Z24
	VSHUFF64X2 $0xa8, Z8, Z7, Z26
	VSHUFF64X2 $0xfd, Z8, Z7, Z27
	VADDPD     Z27, Z26, Z26
	VUNPCKLPD  Z26, Z24, Z28
	VUNPCKHPD  Z26, Z24, Z29
	VADDPD     Z29, Z28, Z28
	VMOVUPD    Z28, K1, (DI)
	ADDQ       R8, DI
	VSHUFF64X2 $0x08, Z11, Z9, Z24
	VSHUFF64X2 $0x5d, Z11, Z9, Z25
	VADDPD     Z25, Z24, Z24
	VSHUFF64X2 $0xa8, Z11, Z10, Z26
	VSHUFF64X2 $0xfd, Z11, Z10, Z27
	VADDPD     Z27, Z26, Z26
	VUNPCKLPD  Z26, Z24, Z28
	VUNPCKHPD  Z26, Z24, Z29
	VADDPD     Z29, Z28, Z28
	VMOVUPD    Z28, K1, (DI)
	ADDQ       R8, DI
	VSHUFF64X2 $0x08, Z14, Z12, Z24
	VSHUFF64X2 $0x5d, Z14, Z12, Z25
	VADDPD     Z25, Z24, Z24
	VSHUFF64X2 $0xa8, Z14, Z13, Z26
	VSHUFF64X2 $0xfd, Z14, Z13, Z27
	VADDPD     Z27, Z26, Z26
	VUNPCKLPD  Z26, Z24, Z28
	VUNPCKHPD  Z26, Z24, Z29
	VADDPD     Z29, Z28, Z28
	VMOVUPD    Z28, K1, (DI)
	ADDQ       R8, DI
	VSHUFF64X2 $0x08, Z17, Z15, Z24
	VSHUFF64X2 $0x5d, Z17, Z15, Z25
	VADDPD     Z25, Z24, Z24
	VSHUFF64X2 $0xa8, Z17, Z16, Z26
	VSHUFF64X2 $0xfd, Z17, Z16, Z27
	VADDPD     Z27, Z26, Z26
	VUNPCKLPD  Z26, Z24, Z28
	VUNPCKHPD  Z26, Z24, Z29
	VADDPD     Z29, Z28, Z28
	VMOVUPD    Z28, K1, (DI)
	ADDQ       R8, DI
	VSHUFF64X2 $0x08, Z20, Z18, Z24
	VSHUFF64X2 $0x5d, Z20, Z18, Z25
	VADDPD     Z25, Z24, Z24
	VSHUFF64X2 $0xa8, Z20, Z19, Z26
	VSHUFF64X2 $0xfd, Z20, Z19, Z27
	VADDPD     Z27, Z26, Z26
	VUNPCKLPD  Z26, Z24, Z28
	VUNPCKHPD  Z26, Z24, Z29
	VADDPD     Z29, Z28, Z28
	VMOVUPD    Z28, K1, (DI)
	ADDQ       R8, DI
	VSHUFF64X2 $0x08, Z23, Z21, Z24
	VSHUFF64X2 $0x5d, Z23, Z21, Z25
	VADDPD     Z25, Z24, Z24
	VSHUFF64X2 $0xa8, Z23, Z22, Z26
	VSHUFF64X2 $0xfd, Z23, Z22, Z27
	VADDPD     Z27, Z26, Z26
	VUNPCKLPD  Z26, Z24, Z28
	VUNPCKHPD  Z26, Z24, Z29
	VADDPD     Z29, Z28, Z28
	VMOVUPD    Z28, K1, (DI)
	VZEROUPPER
	RET
