#include "textflag.h"

// func hasAVX2() bool
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JLT  done
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE and AVX
	CMPL CX, $0x18000000
	JNE  done
	XORL CX, CX
	XGETBV
	ANDL $6, AX          // the OS saves XMM and YMM state
	CMPL AX, $6
	JNE  done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x20, BX       // AVX2
	JZ   done
	MOVB $1, ret+0(FP)

done:
	RET

// RELU zeroes every lane of acc whose bits, read as an int64, are not
// positive (−0 and −NaN included; +NaN passes), using mask as scratch and
// comparing against zero, a register holding +0.
#define RELU(acc, mask, zero) \
	VPCMPGTQ zero, acc, mask; \
	VPAND    mask, acc, acc

// func transMatVecAVX2(dst, at, x, b []float64, relu bool)
//
// dst[o] = act(Σ_j at[j][o]·x[j] + b[o]): output o is one lane, its
// accumulator starts at +0 and adds at[j][o]·x[j] (VMULPD, then VADDPD) for j
// ascending, then b[o] (VADDPD, the accumulator first). With relu set, a lane
// whose bits are not a positive int64 becomes +0 (VPCMPGTQ against zero, then
// VPAND): reluInto's sign-bit rule. Blocks of 16 outputs (Y0–Y3), then of 4
// (Y0), then one at a time with VMULSD, VADDSD and the same epilogue on X
// registers. Y15 stays zero.
TEXT ·transMatVecAVX2(SB), NOSPLIT, $0-97
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ at_base+24(FP), SI
	MOVQ x_base+48(FP), DX
	MOVQ x_len+56(FP), BX
	MOVQ b_base+72(FP), R13
	MOVQ CX, R8
	SHLQ $3, R8          // bytes from at[j][o] to at[j+1][o]
	XORQ R9, R9          // o
	VXORPD Y15, Y15, Y15

block16:
	LEAQ 16(R9), AX
	CMPQ AX, CX
	JGT  block4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	LEAQ (SI)(R9*8), R10
	MOVQ DX, R11
	MOVQ BX, R12
	TESTQ R12, R12
	JZ   store16

loop16:
	VBROADCASTSD (R11), Y4
	VMULPD (R10), Y4, Y5
	VMULPD 32(R10), Y4, Y6
	VMULPD 64(R10), Y4, Y7
	VMULPD 96(R10), Y4, Y8
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	VADDPD Y7, Y2, Y2
	VADDPD Y8, Y3, Y3
	ADDQ R8, R10
	ADDQ $8, R11
	DECQ R12
	JNZ  loop16

store16:
	VADDPD (R13)(R9*8), Y0, Y0
	VADDPD 32(R13)(R9*8), Y1, Y1
	VADDPD 64(R13)(R9*8), Y2, Y2
	VADDPD 96(R13)(R9*8), Y3, Y3
	CMPB relu+96(FP), $0
	JEQ  put16
	RELU(Y0, Y5, Y15)
	RELU(Y1, Y6, Y15)
	RELU(Y2, Y7, Y15)
	RELU(Y3, Y8, Y15)

put16:
	VMOVUPD Y0, (DI)(R9*8)
	VMOVUPD Y1, 32(DI)(R9*8)
	VMOVUPD Y2, 64(DI)(R9*8)
	VMOVUPD Y3, 96(DI)(R9*8)
	MOVQ AX, R9
	JMP  block16

block4:
	LEAQ 4(R9), AX
	CMPQ AX, CX
	JGT  tail
	VXORPD Y0, Y0, Y0
	LEAQ (SI)(R9*8), R10
	MOVQ DX, R11
	MOVQ BX, R12
	TESTQ R12, R12
	JZ   store4

loop4:
	VBROADCASTSD (R11), Y4
	VMULPD (R10), Y4, Y5
	VADDPD Y5, Y0, Y0
	ADDQ R8, R10
	ADDQ $8, R11
	DECQ R12
	JNZ  loop4

store4:
	VADDPD (R13)(R9*8), Y0, Y0
	CMPB relu+96(FP), $0
	JEQ  put4
	RELU(Y0, Y5, Y15)

put4:
	VMOVUPD Y0, (DI)(R9*8)
	MOVQ AX, R9
	JMP  block4

tail:
	CMPQ R9, CX
	JGE  done
	VXORPD X0, X0, X0
	LEAQ (SI)(R9*8), R10
	MOVQ DX, R11
	MOVQ BX, R12
	TESTQ R12, R12
	JZ   store1

loop1:
	VMOVSD (R11), X4
	VMULSD (R10), X4, X5
	VADDSD X5, X0, X0
	ADDQ R8, R10
	ADDQ $8, R11
	DECQ R12
	JNZ  loop1

store1:
	VADDSD (R13)(R9*8), X0, X0
	CMPB relu+96(FP), $0
	JEQ  put1
	RELU(X0, X5, X15)

put1:
	VMOVSD X0, (DI)(R9*8)
	INCQ R9
	JMP  tail

done:
	VZEROUPPER
	RET

// The axpy kernels add c_k·x_k[i] into dst[i] for k ascending, one lane per
// i: dst[i] is loaded once, takes each product (VMULPD, then VADDPD with dst
// as the first operand, as the scalar s += c·x does), and is stored once.
// Blocks of 16 elements (Y0–Y3), then of 4 (Y0), then one at a time. R9 is
// the element index, CX the length, C_k sit broadcast in Y12–Y15.

#define LOAD16 \
	VMOVUPD (DI)(R9*8), Y0; \
	VMOVUPD 32(DI)(R9*8), Y1; \
	VMOVUPD 64(DI)(R9*8), Y2; \
	VMOVUPD 96(DI)(R9*8), Y3

#define STORE16 \
	VMOVUPD Y0, (DI)(R9*8); \
	VMOVUPD Y1, 32(DI)(R9*8); \
	VMOVUPD Y2, 64(DI)(R9*8); \
	VMOVUPD Y3, 96(DI)(R9*8)

// TERM16 adds c·x[i:i+16] into Y0–Y3.
#define TERM16(x, c) \
	VMULPD (x)(R9*8), c, Y4; \
	VMULPD 32(x)(R9*8), c, Y5; \
	VMULPD 64(x)(R9*8), c, Y6; \
	VMULPD 96(x)(R9*8), c, Y7; \
	VADDPD Y4, Y0, Y0; \
	VADDPD Y5, Y1, Y1; \
	VADDPD Y6, Y2, Y2; \
	VADDPD Y7, Y3, Y3

// TERM4 adds c·x[i:i+4] into Y0.
#define TERM4(x, c) \
	VMULPD (x)(R9*8), c, Y4; \
	VADDPD Y4, Y0, Y0

// TERM1 adds c·x[i] into X0.
#define TERM1(x, c) \
	VMULSD (x)(R9*8), c, X4; \
	VADDSD X4, X0, X0

// func axpy1AVX2(dst []float64, c0 float64, x0 []float64)
TEXT ·axpy1AVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	VBROADCASTSD c0+24(FP), Y12
	MOVQ x0_base+32(FP), R10
	XORQ R9, R9

block16:
	LEAQ 16(R9), AX
	CMPQ AX, CX
	JGT  block4
	LOAD16
	TERM16(R10, Y12)
	STORE16
	MOVQ AX, R9
	JMP  block16

block4:
	LEAQ 4(R9), AX
	CMPQ AX, CX
	JGT  tail
	VMOVUPD (DI)(R9*8), Y0
	TERM4(R10, Y12)
	VMOVUPD Y0, (DI)(R9*8)
	MOVQ AX, R9
	JMP  block4

tail:
	CMPQ R9, CX
	JGE  done
	VMOVSD (DI)(R9*8), X0
	TERM1(R10, X12)
	VMOVSD X0, (DI)(R9*8)
	INCQ R9
	JMP  tail

done:
	VZEROUPPER
	RET

// func axpy2AVX2(dst []float64, c0, c1 float64, x0, x1 []float64)
TEXT ·axpy2AVX2(SB), NOSPLIT, $0-88
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	VBROADCASTSD c0+24(FP), Y12
	VBROADCASTSD c1+32(FP), Y13
	MOVQ x0_base+40(FP), R10
	MOVQ x1_base+64(FP), R11
	XORQ R9, R9

block16:
	LEAQ 16(R9), AX
	CMPQ AX, CX
	JGT  block4
	LOAD16
	TERM16(R10, Y12)
	TERM16(R11, Y13)
	STORE16
	MOVQ AX, R9
	JMP  block16

block4:
	LEAQ 4(R9), AX
	CMPQ AX, CX
	JGT  tail
	VMOVUPD (DI)(R9*8), Y0
	TERM4(R10, Y12)
	TERM4(R11, Y13)
	VMOVUPD Y0, (DI)(R9*8)
	MOVQ AX, R9
	JMP  block4

tail:
	CMPQ R9, CX
	JGE  done
	VMOVSD (DI)(R9*8), X0
	TERM1(R10, X12)
	TERM1(R11, X13)
	VMOVSD X0, (DI)(R9*8)
	INCQ R9
	JMP  tail

done:
	VZEROUPPER
	RET

// func axpy4AVX2(dst []float64, c0, c1, c2, c3 float64, x0, x1, x2, x3 []float64)
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-152
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	VBROADCASTSD c0+24(FP), Y12
	VBROADCASTSD c1+32(FP), Y13
	VBROADCASTSD c2+40(FP), Y14
	VBROADCASTSD c3+48(FP), Y15
	MOVQ x0_base+56(FP), R10
	MOVQ x1_base+80(FP), R11
	MOVQ x2_base+104(FP), R12
	MOVQ x3_base+128(FP), R13
	XORQ R9, R9

block16:
	LEAQ 16(R9), AX
	CMPQ AX, CX
	JGT  block4
	LOAD16
	TERM16(R10, Y12)
	TERM16(R11, Y13)
	TERM16(R12, Y14)
	TERM16(R13, Y15)
	STORE16
	MOVQ AX, R9
	JMP  block16

block4:
	LEAQ 4(R9), AX
	CMPQ AX, CX
	JGT  tail
	VMOVUPD (DI)(R9*8), Y0
	TERM4(R10, Y12)
	TERM4(R11, Y13)
	TERM4(R12, Y14)
	TERM4(R13, Y15)
	VMOVUPD Y0, (DI)(R9*8)
	MOVQ AX, R9
	JMP  block4

tail:
	CMPQ R9, CX
	JGE  done
	VMOVSD (DI)(R9*8), X0
	TERM1(R10, X12)
	TERM1(R11, X13)
	TERM1(R12, X14)
	TERM1(R13, X15)
	VMOVSD X0, (DI)(R9*8)
	INCQ R9
	JMP  tail

done:
	VZEROUPPER
	RET

// func pairDotsAVX2(dst, f, ft []float64, n, d int)
//
// dst[p] = Σ_k f[i][k]·f[j][k] over the pairs i < j, p running row by row
// over the upper triangle.
//
// First f (n×d) is transposed into ft, d rows of ld = n+3: 4×4 tiles in
// registers (VUNPCKLPD/VUNPCKHPD, then VPERM2F128) over the first n&^3 rows
// and d&^3 columns, one element at a time for the rest. Columns n…ld-1 of ft
// are never written; they only feed lanes that are never stored.
//
// Then each partner is one lane. A group is a row i and the partners
// j0…j0+3 (j0 > i): its lanes read ft[k][j0:j0+4], multiply by f[i][k]
// broadcast from ft[k][i] and add for k ascending from +0 (VMULPD, then
// VADDPD) — Dot's order. Groups run row by row, four at a time in Y0–Y3, so
// four independent chains are in flight. A row's last group stores only its
// v = n-j0 valid lanes, and the last chunk repeats the final group to fill
// its slots (same lanes, same bits, stored again).
//
// The frame holds the chunk's four group slots, 32 bytes each (i, j0, p, v),
// and at 128(SP) the flag that the final group has been slotted.
TEXT ·pairDotsAVX2(SB), NOSPLIT, $136-88
	MOVQ f_base+24(FP), SI
	MOVQ ft_base+48(FP), DI
	MOVQ n+72(FP), R8
	MOVQ d+80(FP), R9
	LEAQ 3(R8), DX
	SHLQ $3, DX          // bytes from ft[k][c] to ft[k+1][c]
	MOVQ R9, R10
	SHLQ $3, R10         // bytes from f[r][k] to f[r+1][k]
	LEAQ (R10)(R10*2), R11
	LEAQ (DX)(DX*2), R12
	MOVQ R8, R13
	ANDQ $-4, R13        // rows in whole tiles
	MOVQ R9, BX
	ANDQ $-4, BX         // columns in whole tiles
	XORQ AX, AX          // r0

tilerows:
	CMPQ AX, R13
	JGE  rowtail
	MOVQ AX, CX
	IMULQ R10, CX
	ADDQ SI, CX          // &f[r0][0]
	LEAQ (DI)(AX*8), R14 // &ft[0][r0]
	XORQ R15, R15        // k0

tilecols:
	CMPQ R15, BX
	JGE  coltail
	VMOVUPD (CX), Y0
	VMOVUPD (CX)(R10*1), Y1
	VMOVUPD (CX)(R10*2), Y2
	VMOVUPD (CX)(R11*1), Y3
	VUNPCKLPD Y1, Y0, Y4 // a0 b0 a2 b2
	VUNPCKHPD Y1, Y0, Y5 // a1 b1 a3 b3
	VUNPCKLPD Y3, Y2, Y6 // c0 d0 c2 d2
	VUNPCKHPD Y3, Y2, Y7 // c1 d1 c3 d3
	VPERM2F128 $0x20, Y6, Y4, Y0
	VPERM2F128 $0x20, Y7, Y5, Y1
	VPERM2F128 $0x31, Y6, Y4, Y2
	VPERM2F128 $0x31, Y7, Y5, Y3
	VMOVUPD Y0, (R14)
	VMOVUPD Y1, (R14)(DX*1)
	VMOVUPD Y2, (R14)(DX*2)
	VMOVUPD Y3, (R14)(R12*1)
	ADDQ $32, CX
	LEAQ (R14)(DX*4), R14
	ADDQ $4, R15
	JMP  tilecols

coltail:
	CMPQ R15, R9
	JGE  nexttile
	VMOVSD (CX), X0
	VMOVSD (CX)(R10*1), X1
	VMOVSD (CX)(R10*2), X2
	VMOVSD (CX)(R11*1), X3
	VMOVSD X0, (R14)
	VMOVSD X1, 8(R14)
	VMOVSD X2, 16(R14)
	VMOVSD X3, 24(R14)
	ADDQ $8, CX
	ADDQ DX, R14
	INCQ R15
	JMP  coltail

nexttile:
	ADDQ $4, AX
	JMP  tilerows

rowtail:
	CMPQ AX, R8
	JGE  dots
	MOVQ AX, CX
	IMULQ R10, CX
	ADDQ SI, CX          // &f[r][0]
	LEAQ (DI)(AX*8), R14 // &ft[0][r]
	MOVQ R9, R15
	TESTQ R15, R15
	JZ   nextrow

rowk:
	VMOVSD (CX), X0
	VMOVSD X0, (R14)
	ADDQ $8, CX
	ADDQ DX, R14
	DECQ R15
	JNZ  rowk

nextrow:
	INCQ AX
	JMP  rowtail

dots:
	CMPQ R8, $2
	JLT  done
	XORQ R14, R14        // i
	MOVQ $1, R15         // j0
	XORQ DI, DI          // p
	MOVQ $0, 128(SP)

chunk:
	XORQ R8, R8          // slot offset

slot:
	MOVQ R14, 0(SP)(R8*1)
	MOVQ R15, 8(SP)(R8*1)
	MOVQ DI, 16(SP)(R8*1)
	MOVQ n+72(FP), CX
	SUBQ R15, CX
	MOVQ $4, BX
	CMPQ CX, BX
	CMOVQLT CX, BX       // v = min(n-j0, 4)
	MOVQ BX, 24(SP)(R8*1)
	CMPQ 128(SP), $0
	JNE  nextslot
	LEAQ 4(R15), CX
	CMPQ CX, n+72(FP)
	JGE  newrow
	MOVQ CX, R15         // the row's next group
	ADDQ BX, DI
	JMP  nextslot

newrow:
	LEAQ 2(R14), CX
	CMPQ CX, n+72(FP)
	JGE  final
	INCQ R14             // the next row's first group
	MOVQ CX, R15
	ADDQ BX, DI
	JMP  nextslot

final:
	MOVQ $1, 128(SP)

nextslot:
	ADDQ $32, R8
	CMPQ R8, $128
	JLT  slot

	MOVQ 0(SP), R8
	MOVQ 8(SP), R9
	MOVQ 32(SP), R10
	MOVQ 40(SP), R11
	MOVQ 64(SP), R12
	MOVQ 72(SP), R13
	MOVQ 96(SP), AX
	MOVQ 104(SP), SI
	MOVQ ft_base+48(FP), BX // &ft[k][0]
	MOVQ d+80(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	TESTQ CX, CX
	JZ   store

kloop:
	VBROADCASTSD (BX)(R8*8), Y4
	VMULPD (BX)(R9*8), Y4, Y4
	VADDPD Y4, Y0, Y0
	VBROADCASTSD (BX)(R10*8), Y5
	VMULPD (BX)(R11*8), Y5, Y5
	VADDPD Y5, Y1, Y1
	VBROADCASTSD (BX)(R12*8), Y6
	VMULPD (BX)(R13*8), Y6, Y6
	VADDPD Y6, Y2, Y2
	VBROADCASTSD (BX)(AX*8), Y7
	VMULPD (BX)(SI*8), Y7, Y7
	VADDPD Y7, Y3, Y3
	ADDQ DX, BX
	DECQ CX
	JNZ  kloop

store:
	MOVQ dst_base+0(FP), BX
	XORQ R8, R8          // slot offset; the slot's lanes are in Y0

storeslot:
	MOVQ 16(SP)(R8*1), CX
	CMPQ 24(SP)(R8*1), $4
	JNE  partial
	VMOVUPD Y0, (BX)(CX*8)
	JMP  rotate

partial:
	VMOVSD X0, (BX)(CX*8)
	CMPQ 24(SP)(R8*1), $2
	JLT  rotate
	VMOVHPD X0, 8(BX)(CX*8)
	JEQ  rotate
	VEXTRACTF128 $1, Y0, X4
	VMOVSD X4, 16(BX)(CX*8)

rotate:
	VMOVAPD Y1, Y0
	VMOVAPD Y2, Y1
	VMOVAPD Y3, Y2
	ADDQ $32, R8
	CMPQ R8, $128
	JLT  storeslot
	CMPQ 128(SP), $0
	JEQ  chunk

done:
	VZEROUPPER
	RET

// func columnMeansAVX2(mean, data []float64, rows int)
//
// mean[j] = (Σ_r data[r][j]) / rows for the n = len(mean) columns of the
// rows×n matrix data: column j is one lane, its accumulator starts at +0 and
// adds data[r][j] (VADDPD, the accumulator first) for r ascending, then is
// divided by float64(rows) (VDIVPD) unless rows is 0, which leaves +0.
// Blocks of 16 columns (Y0–Y3), then of 4 (Y0), then one at a time.
TEXT ·columnMeansAVX2(SB), NOSPLIT, $0-56
	MOVQ mean_base+0(FP), DI
	MOVQ mean_len+8(FP), CX
	MOVQ data_base+24(FP), SI
	MOVQ rows+48(FP), BX
	MOVQ CX, R8
	SHLQ $3, R8          // bytes from data[r][j] to data[r+1][j]
	VCVTSI2SDQ BX, X14, X14
	VBROADCASTSD X14, Y14
	XORQ R9, R9          // j

block16:
	LEAQ 16(R9), AX
	CMPQ AX, CX
	JGT  block4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	LEAQ (SI)(R9*8), R10
	MOVQ BX, R12
	TESTQ R12, R12
	JZ   put16

loop16:
	VADDPD (R10), Y0, Y0
	VADDPD 32(R10), Y1, Y1
	VADDPD 64(R10), Y2, Y2
	VADDPD 96(R10), Y3, Y3
	ADDQ R8, R10
	DECQ R12
	JNZ  loop16
	VDIVPD Y14, Y0, Y0
	VDIVPD Y14, Y1, Y1
	VDIVPD Y14, Y2, Y2
	VDIVPD Y14, Y3, Y3

put16:
	VMOVUPD Y0, (DI)(R9*8)
	VMOVUPD Y1, 32(DI)(R9*8)
	VMOVUPD Y2, 64(DI)(R9*8)
	VMOVUPD Y3, 96(DI)(R9*8)
	MOVQ AX, R9
	JMP  block16

block4:
	LEAQ 4(R9), AX
	CMPQ AX, CX
	JGT  tail
	VXORPD Y0, Y0, Y0
	LEAQ (SI)(R9*8), R10
	MOVQ BX, R12
	TESTQ R12, R12
	JZ   put4

loop4:
	VADDPD (R10), Y0, Y0
	ADDQ R8, R10
	DECQ R12
	JNZ  loop4
	VDIVPD Y14, Y0, Y0

put4:
	VMOVUPD Y0, (DI)(R9*8)
	MOVQ AX, R9
	JMP  block4

tail:
	CMPQ R9, CX
	JGE  done
	VXORPD X0, X0, X0
	LEAQ (SI)(R9*8), R10
	MOVQ BX, R12
	TESTQ R12, R12
	JZ   put1

loop1:
	VADDSD (R10), X0, X0
	ADDQ R8, R10
	DECQ R12
	JNZ  loop1
	VDIVSD X14, X0, X0

put1:
	VMOVSD X0, (DI)(R9*8)
	INCQ R9
	JMP  tail

done:
	VZEROUPPER
	RET

// func scatterAVX2(dst, data, mean []float64, rows int)
//
// dst[p][q] = Σ_r (data[r][p]−mean[p])·(data[r][q]−mean[q]) over the rows×n
// matrix data, n = len(mean): output (p, q) is one lane, its accumulator
// starts at +0 and adds the product (VMULPD, the p factor first, then
// VADDPD) for r ascending — gramInto's scalar order.
//
// Rows of dst go two at a time, p and p1 = min(p+1, n−1) for p even (an odd n
// computes its last row twice and stores the same bits twice). A pair's
// lanes are the columns from q0 = p &^ 3 to n: blocks of 16 (Y0–Y3 for p,
// Y4–Y7 for p1), then of 4 (Y0, Y4), then one at a time (X0, X4), each
// block one pass over the rows. Starting at q0 rather than p keeps every
// load on the data's 4-column grid; the lanes left of p fall in the
// diagonal 4×4 block's strict lower triangle, which no reader of dst uses. Per
// row, the p factors are centred in X12/X13 and broadcast to Y12/Y13, and
// the block's columns are centred into Y8–Y11 (VSUBPD).
TEXT ·scatterAVX2(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ data_base+24(FP), SI
	MOVQ mean_base+48(FP), DX
	MOVQ mean_len+56(FP), CX
	MOVQ rows+72(FP), BX
	MOVQ CX, R8
	SHLQ $3, R8          // bytes from data[r][j] to data[r+1][j], and dst's row stride
	XORQ R9, R9          // p

pairs:
	CMPQ R9, CX
	JGE  done
	LEAQ 1(R9), R10
	CMPQ R10, CX
	JLT  rowptrs
	MOVQ R9, R10         // p1 = p when p is the last row

rowptrs:
	MOVQ R9, R14
	IMULQ R8, R14
	ADDQ DI, R14         // &dst[p][0]
	MOVQ R10, R15
	IMULQ R8, R15
	ADDQ DI, R15         // &dst[p1][0]
	MOVQ R9, R11
	ANDQ $-4, R11        // q0

// CENTREP leaves data[r][p]−mean[p] and data[r][p1]−mean[p1] in X12 and
// X13, for the row at R12.
#define CENTREP \
	VMOVSD (R12)(R9*8), X12; \
	VSUBSD (DX)(R9*8), X12, X12; \
	VMOVSD (R12)(R10*8), X13; \
	VSUBSD (DX)(R10*8), X13, X13

// PQ4 adds the products of the p and p1 factors with the centred columns in
// y into accp and accp1, using t as scratch.
#define PQ4(y, accp, accp1, t) \
	VMULPD y, Y12, t; \
	VADDPD t, accp, accp; \
	VMULPD y, Y13, t; \
	VADDPD t, accp1, accp1

sblock16:
	LEAQ 16(R11), AX
	CMPQ AX, CX
	JGT  sblock4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ SI, R12
	MOVQ BX, R13
	TESTQ R13, R13
	JZ   sput16

sloop16:
	CENTREP
	VBROADCASTSD X12, Y12
	VBROADCASTSD X13, Y13
	VMOVUPD (R12)(R11*8), Y8
	VMOVUPD 32(R12)(R11*8), Y9
	VMOVUPD 64(R12)(R11*8), Y10
	VMOVUPD 96(R12)(R11*8), Y11
	VSUBPD (DX)(R11*8), Y8, Y8
	VSUBPD 32(DX)(R11*8), Y9, Y9
	VSUBPD 64(DX)(R11*8), Y10, Y10
	VSUBPD 96(DX)(R11*8), Y11, Y11
	PQ4(Y8, Y0, Y4, Y14)
	PQ4(Y9, Y1, Y5, Y15)
	PQ4(Y10, Y2, Y6, Y14)
	PQ4(Y11, Y3, Y7, Y15)
	ADDQ R8, R12
	DECQ R13
	JNZ  sloop16

sput16:
	VMOVUPD Y4, (R15)(R11*8)
	VMOVUPD Y5, 32(R15)(R11*8)
	VMOVUPD Y6, 64(R15)(R11*8)
	VMOVUPD Y7, 96(R15)(R11*8)
	VMOVUPD Y0, (R14)(R11*8)
	VMOVUPD Y1, 32(R14)(R11*8)
	VMOVUPD Y2, 64(R14)(R11*8)
	VMOVUPD Y3, 96(R14)(R11*8)
	MOVQ AX, R11
	JMP  sblock16

sblock4:
	LEAQ 4(R11), AX
	CMPQ AX, CX
	JGT  stail
	VXORPD Y0, Y0, Y0
	VXORPD Y4, Y4, Y4
	MOVQ SI, R12
	MOVQ BX, R13
	TESTQ R13, R13
	JZ   sput4

sloop4:
	CENTREP
	VBROADCASTSD X12, Y12
	VBROADCASTSD X13, Y13
	VMOVUPD (R12)(R11*8), Y8
	VSUBPD (DX)(R11*8), Y8, Y8
	PQ4(Y8, Y0, Y4, Y14)
	ADDQ R8, R12
	DECQ R13
	JNZ  sloop4

sput4:
	VMOVUPD Y4, (R15)(R11*8)
	VMOVUPD Y0, (R14)(R11*8)
	MOVQ AX, R11
	JMP  sblock4

stail:
	CMPQ R11, CX
	JGE  nextpair
	VXORPD X0, X0, X0
	VXORPD X4, X4, X4
	MOVQ SI, R12
	MOVQ BX, R13
	TESTQ R13, R13
	JZ   sput1

sloop1:
	CENTREP
	VMOVSD (R12)(R11*8), X8
	VSUBSD (DX)(R11*8), X8, X8
	VMULSD X8, X12, X14
	VADDSD X14, X0, X0
	VMULSD X8, X13, X15
	VADDSD X15, X4, X4
	ADDQ R8, R12
	DECQ R13
	JNZ  sloop1

sput1:
	VMOVSD X4, (R15)(R11*8)
	VMOVSD X0, (R14)(R11*8)
	INCQ R11
	JMP  stail

nextpair:
	ADDQ $2, R9
	JMP  pairs

done:
	VZEROUPPER
	RET

// func mergeAVX2(m2, om2, mean, omean []float64, f, w float64)
//
// Moments.Merge's two loops, one lane per output, in its scalar order. For
// each row p of the d×d scatter, d = len(mean), with dp = (omean[p] −
// mean[p])·f broadcast in Y15: m2[p][q] += om2[p][q] + dp·(omean[q] −
// mean[q]) over q ≥ p, the sum on the right formed first and added to m2
// (the accumulator first); lanes start at q = p, so nothing left of the
// diagonal is read or written. Then mean[j] += (omean[j] − mean[j])·w. Both
// run blocks of 16 (Y0–Y3), then of 4 (Y0), then one at a time.
TEXT ·mergeAVX2(SB), NOSPLIT, $0-112
	MOVQ m2_base+0(FP), DI
	MOVQ om2_base+24(FP), SI
	MOVQ mean_base+48(FP), DX
	MOVQ mean_len+56(FP), CX
	MOVQ omean_base+72(FP), BX
	VMOVSD f+96(FP), X14
	MOVQ CX, R8
	SHLQ $3, R8          // bytes per scatter row
	XORQ R9, R9          // p
	MOVQ DI, R14         // &m2[p][0]
	MOVQ SI, R15         // &om2[p][0]

// MTERM leaves om2[p][q+k…] + dp·(omean[q+k…] − mean[q+k…]) in y, for the
// element offset k (in bytes, off), using t as scratch.
#define MTERM(off, y, t) \
	VMOVUPD off(BX)(R11*8), t; \
	VSUBPD off(DX)(R11*8), t, t; \
	VMULPD t, Y15, t; \
	VMOVUPD off(R15)(R11*8), y; \
	VADDPD t, y, y

// MADD adds y into m2[p][q+k…] for the byte offset off, using t as scratch.
#define MADD(off, y, t) \
	VMOVUPD off(R14)(R11*8), t; \
	VADDPD y, t, t; \
	VMOVUPD t, off(R14)(R11*8)

mrows:
	CMPQ R9, CX
	JGE  means
	VMOVSD (BX)(R9*8), X15
	VSUBSD (DX)(R9*8), X15, X15
	VMULSD X14, X15, X15
	VBROADCASTSD X15, Y15
	MOVQ R9, R11         // q

mblock16:
	LEAQ 16(R11), AX
	CMPQ AX, CX
	JGT  mblock4
	MTERM(0, Y0, Y4)
	MTERM(32, Y1, Y5)
	MTERM(64, Y2, Y6)
	MTERM(96, Y3, Y7)
	MADD(0, Y0, Y4)
	MADD(32, Y1, Y5)
	MADD(64, Y2, Y6)
	MADD(96, Y3, Y7)
	MOVQ AX, R11
	JMP  mblock16

mblock4:
	LEAQ 4(R11), AX
	CMPQ AX, CX
	JGT  mtail
	MTERM(0, Y0, Y4)
	MADD(0, Y0, Y4)
	MOVQ AX, R11
	JMP  mblock4

mtail:
	CMPQ R11, CX
	JGE  mnext
	VMOVSD (BX)(R11*8), X4
	VSUBSD (DX)(R11*8), X4, X4
	VMULSD X4, X15, X4
	VMOVSD (R15)(R11*8), X0
	VADDSD X4, X0, X0
	VMOVSD (R14)(R11*8), X4
	VADDSD X0, X4, X4
	VMOVSD X4, (R14)(R11*8)
	INCQ R11
	JMP  mtail

mnext:
	ADDQ R8, R14
	ADDQ R8, R15
	INCQ R9
	JMP  mrows

means:
	VBROADCASTSD w+104(FP), Y14
	XORQ R11, R11        // j

// MMEAN adds (omean[j+k…] − mean[j+k…])·w into mean[j+k…] for the byte
// offset off, using t and y as scratch.
#define MMEAN(off, t, y) \
	VMOVUPD off(BX)(R11*8), t; \
	VSUBPD off(DX)(R11*8), t, t; \
	VMULPD Y14, t, t; \
	VMOVUPD off(DX)(R11*8), y; \
	VADDPD t, y, y; \
	VMOVUPD y, off(DX)(R11*8)

jblock16:
	LEAQ 16(R11), AX
	CMPQ AX, CX
	JGT  jblock4
	MMEAN(0, Y0, Y4)
	MMEAN(32, Y1, Y5)
	MMEAN(64, Y2, Y6)
	MMEAN(96, Y3, Y7)
	MOVQ AX, R11
	JMP  jblock16

jblock4:
	LEAQ 4(R11), AX
	CMPQ AX, CX
	JGT  jtail
	MMEAN(0, Y0, Y4)
	MOVQ AX, R11
	JMP  jblock4

jtail:
	CMPQ R11, CX
	JGE  done
	VMOVSD (BX)(R11*8), X0
	VSUBSD (DX)(R11*8), X0, X0
	VMULSD X14, X0, X0
	VMOVSD (DX)(R11*8), X4
	VADDSD X0, X4, X4
	VMOVSD X4, (DX)(R11*8)
	INCQ R11
	JMP  jtail

done:
	VZEROUPPER
	RET
