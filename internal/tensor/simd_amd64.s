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

// func transMatVecAVX2(dst, at, x []float64)
//
// dst[o] = Σ_j at[j][o]·x[j]: output o is one lane, its accumulator starts
// at +0 and adds at[j][o]·x[j] (VMULPD, then VADDPD) for j ascending. Blocks
// of 16 outputs (Y0–Y3), then of 4 (Y0), then one at a time with VMULSD and
// VADDSD.
TEXT ·transMatVecAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ at_base+24(FP), SI
	MOVQ x_base+48(FP), DX
	MOVQ x_len+56(FP), BX
	MOVQ CX, R8
	SHLQ $3, R8          // bytes from at[j][o] to at[j+1][o]
	XORQ R9, R9          // o

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
