#include "textflag.h"

// The vector bodies of the batched backend's tile loops (avx_amd64.go). AVX1
// only, and no fused multiply-add: every lane rounds each product and each
// sum on its own, in the order of the Go loop it replaces, so its bits are
// that loop's. Nothing here checks a bound; the Go callers do.

// TRANSPOSE4 transposes the 4×4 block in r0–r3 in place, one row per
// register in and one column per register out, through t0–t3.
#define TRANSPOSE4(r0, r1, r2, r3, t0, t1, t2, t3) \
	VUNPCKLPD  r1, r0, t0; \
	VUNPCKHPD  r1, r0, t1; \
	VUNPCKLPD  r3, r2, t2; \
	VUNPCKHPD  r3, r2, t3; \
	VPERM2F128 $0x20, t2, t0, r0; \
	VPERM2F128 $0x20, t3, t1, r1; \
	VPERM2F128 $0x31, t2, t0, r2; \
	VPERM2F128 $0x31, t3, t1, r3

// ROW4 leaves in acc the row ((c0·x0 + c1·x1) + c2·x2) + c3·x3 of the matrix
// whose columns are in Y4–Y7, x being the four float64s at base+off, through t.
#define ROW4(base, off, acc, t) \
	VBROADCASTSD 0(base)(off*1), acc; \
	VMULPD       Y4, acc, acc; \
	VBROADCASTSD 8(base)(off*1), t; \
	VMULPD       Y5, t, t; \
	VADDPD       t, acc, acc; \
	VBROADCASTSD 16(base)(off*1), t; \
	VMULPD       Y6, t, t; \
	VADDPD       t, acc, acc; \
	VBROADCASTSD 24(base)(off*1), t; \
	VMULPD       Y7, t, t; \
	VADDPD       t, acc, acc

// func projectAVX(p, src []float64, idx []int32, out []float64, ncat int)
TEXT ·projectAVX(SB), NOSPLIT, $0-104
	MOVQ p_base+0(FP), SI
	MOVQ src_base+24(FP), DI
	MOVQ idx_base+48(FP), R8
	MOVQ idx_len+56(FP), R9
	MOVQ out_base+72(FP), R10
	MOVQ ncat+96(FP), R12
	SHLQ $5, R12 // a row's bytes: ncat·4 float64s
	XORQ BX, BX  // the category's byte offset within a row

pcat:
	CMPQ    BX, R12
	JAE     pdone
	VMOVUPD 0(SI), Y4
	VMOVUPD 32(SI), Y5
	VMOVUPD 64(SI), Y6
	VMOVUPD 96(SI), Y7
	TRANSPOSE4(Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)
	LEAQ    (R10)(BX*1), DX
	XORQ    CX, CX

prow:
	CMPQ    CX, R9
	JAE     pnext
	MOVLQSX (R8)(CX*4), AX
	IMULQ   R12, AX
	ADDQ    BX, AX
	ROW4(DI, AX, Y0, Y1)
	VMOVUPD Y0, (DX)
	ADDQ    R12, DX
	INCQ    CX
	JMP     prow

pnext:
	ADDQ $128, SI
	ADDQ $32, BX
	JMP  pcat

pdone:
	VZEROUPPER
	RET

// func projectTimesAVX(p, src []float64, idx []int32, a []float64, aIdx []int32, out []float64, ncat int)
TEXT ·projectTimesAVX(SB), NOSPLIT, $0-152
	MOVQ p_base+0(FP), SI
	MOVQ src_base+24(FP), DI
	MOVQ idx_base+48(FP), R8
	MOVQ idx_len+56(FP), R9
	MOVQ a_base+72(FP), R13
	MOVQ aIdx_base+96(FP), DX
	MOVQ out_base+120(FP), R10
	MOVQ ncat+144(FP), R12
	SHLQ $5, R12
	XORQ BX, BX

tcat:
	CMPQ    BX, R12
	JAE     tdone
	VMOVUPD 0(SI), Y4
	VMOVUPD 32(SI), Y5
	VMOVUPD 64(SI), Y6
	VMOVUPD 96(SI), Y7
	TRANSPOSE4(Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)
	LEAQ    (R10)(BX*1), R11
	XORQ    CX, CX

trow:
	CMPQ    CX, R9
	JAE     tnext
	MOVLQSX (R8)(CX*4), AX
	IMULQ   R12, AX
	ADDQ    BX, AX
	ROW4(DI, AX, Y0, Y1)
	MOVLQSX (DX)(CX*4), AX
	IMULQ   R12, AX
	ADDQ    BX, AX
	VMULPD  (R13)(AX*1), Y0, Y0 // t · (…)
	VMOVUPD Y0, (R11)
	ADDQ    R12, R11
	INCQ    CX
	JMP     trow

tnext:
	ADDQ $128, SI
	ADDQ $32, BX
	JMP  tcat

tdone:
	VZEROUPPER
	RET

// func mat4AVX(m *[4][4]float64, y, f []float64)
TEXT ·mat4AVX(SB), NOSPLIT, $0-56
	MOVQ m+0(FP), AX
	MOVQ y_base+8(FP), SI
	MOVQ f_base+32(FP), DI
	MOVQ f_len+40(FP), CX
	SHRQ $2, CX
	JZ   mdone
	VMOVUPD 0(AX), Y4
	VMOVUPD 32(AX), Y5
	VMOVUPD 64(AX), Y6
	VMOVUPD 96(AX), Y7
	TRANSPOSE4(Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)

	XORQ BX, BX

mrow:
	ROW4(SI, BX, Y0, Y1)
	VMOVUPD Y0, (DI)(BX*1)
	ADDQ    $32, BX
	DECQ    CX
	JNZ     mrow

mdone:
	VZEROUPPER
	RET

// func sumPAVX(fr *[4]float64, v *[4][4]float64, x, f []float64)
TEXT ·sumPAVX(SB), NOSPLIT, $0-64
	MOVQ fr+0(FP), AX
	MOVQ v+8(FP), BX
	MOVQ x_base+16(FP), SI
	MOVQ f_base+40(FP), DI
	MOVQ f_len+48(FP), CX
	SHRQ $2, CX
	JZ   sdone
	VBROADCASTSD 0(AX), Y4
	VBROADCASTSD 8(AX), Y5
	VBROADCASTSD 16(AX), Y6
	VBROADCASTSD 24(AX), Y7
	VMOVUPD      0(BX), Y8
	VMOVUPD      32(BX), Y9
	VMOVUPD      64(BX), Y10
	VMOVUPD      96(BX), Y11

	// f[k] = ((fx0·v[0][k] + fx1·v[1][k]) + fx2·v[2][k]) + fx3·v[3][k],
	// fx_i = π_i·x_i broadcast.
srow:
	VBROADCASTSD 0(SI), Y0
	VMULPD       Y4, Y0, Y0
	VMULPD       Y8, Y0, Y0
	VBROADCASTSD 8(SI), Y1
	VMULPD       Y5, Y1, Y1
	VMULPD       Y9, Y1, Y1
	VADDPD       Y1, Y0, Y0
	VBROADCASTSD 16(SI), Y1
	VMULPD       Y6, Y1, Y1
	VMULPD       Y10, Y1, Y1
	VADDPD       Y1, Y0, Y0
	VBROADCASTSD 24(SI), Y1
	VMULPD       Y7, Y1, Y1
	VMULPD       Y11, Y1, Y1
	VADDPD       Y1, Y0, Y0
	VMOVUPD      Y0, (DI)
	ADDQ         $32, SI
	ADDQ         $32, DI
	DECQ         CX
	JNZ          srow

sdone:
	VZEROUPPER
	RET

// DERIV adds to acc, lane by lane, A0·e[0] + … + A3·e[3] one term at a
// time, A0–A3 in Y3–Y6 and e the four float64s at base+off, through Y7.
#define DERIV(base, off, acc) \
	VBROADCASTSD 0(base)(off*1), Y7; \
	VMULPD       Y7, Y3, Y7; \
	VADDPD       Y7, acc, acc; \
	VBROADCASTSD 8(base)(off*1), Y7; \
	VMULPD       Y7, Y4, Y7; \
	VADDPD       Y7, acc, acc; \
	VBROADCASTSD 16(base)(off*1), Y7; \
	VMULPD       Y7, Y5, Y7; \
	VADDPD       Y7, acc, acc; \
	VBROADCASTSD 24(base)(off*1), Y7; \
	VMULPD       Y7, Y6, Y7; \
	VADDPD       Y7, acc, acc

// func newtonDerivAVX(tab, e0, e1, e2, l0, l1, l2 []float64)
TEXT ·newtonDerivAVX(SB), NOSPLIT, $0-168
	MOVQ tab_base+0(FP), SI
	MOVQ e0_base+24(FP), R8
	MOVQ e0_len+32(FP), R11
	MOVQ e1_base+48(FP), R9
	MOVQ e2_base+72(FP), R10
	MOVQ l0_base+96(FP), AX
	MOVQ l0_len+104(FP), CX
	MOVQ l1_base+120(FP), BX
	MOVQ l2_base+144(FP), DX
	SHLQ $3, R11             // a pattern's bytes
	LEAQ (R11)(R11*2), R12   // three patterns' bytes
	SHRQ $2, CX              // groups of four patterns
	JZ   ndone
	TESTQ R11, R11
	JZ   ndone

ngroup:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	XORQ   DI, DI // the category's byte offset within a pattern

ncats:
	LEAQ    (SI)(DI*1), R13
	VMOVUPD (R13), Y3
	VMOVUPD (R13)(R11*1), Y4
	VMOVUPD (R13)(R11*2), Y5
	VMOVUPD (R13)(R12*1), Y6
	TRANSPOSE4(Y3, Y4, Y5, Y6, Y8, Y9, Y10, Y11)
	DERIV(R8, DI, Y0)
	DERIV(R9, DI, Y1)
	DERIV(R10, DI, Y2)
	ADDQ    $32, DI
	CMPQ    DI, R11
	JB      ncats

	VMOVUPD Y0, (AX)
	VMOVUPD Y1, (BX)
	VMOVUPD Y2, (DX)
	ADDQ    $32, AX
	ADDQ    $32, BX
	ADDQ    $32, DX
	LEAQ    (SI)(R11*4), SI
	DECQ    CX
	JNZ     ngroup

ndone:
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
