#include "textflag.h"

// The AVX2 row kernels: rowpass.go's portable loops, four cells an
// instruction. Every lane does the scalar loop's arithmetic in its order —
// VSUBPD, then VMULPD, then VADDPD, never a fused multiply-add, which would
// round once and store other bits. A tail of fewer than four cells runs on
// VEX-encoded scalar instructions: a legacy-SSE instruction after a dirty
// upper YMM half costs a state transition on every execution. Each kernel
// ends with VZEROUPPER.

// func sweepAVX2(row, sym []float64, nx, ny, stride, tabAt, xc, yc int, shift, m, below, pc, mx float64) (out float64, ahead int, mixed bool)
//
// sweepRowsGo in one call. For each grid row x the log weights start at
// sym[|x−xc|·stride + tabAt]; rows before xc count against below, rows
// after it against pc, and row xc is cut at yc, below then pc. For each
// cell: p := row[j] − shift; count p > th (GT_OQ: false on NaN); row[j] =
// p + m·t; the maximum per lane is v > mx ? v : mx (VMAXPD mx, v, mx), the
// scalar rule. A run of cells goes eight an iteration on two maximum
// accumulators (Y3, Y8), then four, then one at a time on a third (X9); the
// three are merged once, at the end.
TEXT ·sweepAVX2(SB), NOSPLIT, $0-153
	MOVQ         row_base+0(FP), R13
	MOVQ         ny+56(FP), R12
	VBROADCASTSD shift+96(FP), Y0
	VBROADCASTSD m+104(FP), Y1
	VBROADCASTSD mx+128(FP), Y3
	VMOVAPD      Y3, Y8
	VMOVSD       mx+128(FP), X9
	XORQ         AX, AX
	XORQ         R10, R10

gridrow:
	CMPQ R10, nx+48(FP)
	JGE  fold

	// DI: the weights for row R10, at |R10 − xc|·stride + tabAt.
	MOVQ  R10, R11
	SUBQ  xc+80(FP), R11
	MOVQ  R11, R9
	SARQ  $63, R9
	XORQ  R9, R11
	SUBQ  R9, R11
	IMULQ stride+64(FP), R11
	ADDQ  tabAt+72(FP), R11
	MOVQ  sym_base+24(FP), DI
	LEAQ  (DI)(R11*8), DI
	MOVQ  R13, SI
	MOVQ  R12, CX
	XORQ  R11, R11
	CMPQ  R10, xc+80(FP)
	JLT   before
	JGT   after

	// The centre's row: [0, yc) against below, then (R11 = 1) the rest.
	MOVQ         yc+88(FP), CX
	MOVQ         $1, R11

before:
	VBROADCASTSD below+112(FP), Y2
	JMP          run

after:
	VBROADCASTSD pc+120(FP), Y2
	JMP          run

rundone:
	TESTQ        R11, R11
	JZ           nextrow
	MOVQ         yc+88(FP), R9
	LEAQ         (SI)(R9*8), SI
	LEAQ         (DI)(R9*8), DI
	MOVQ         R12, CX
	SUBQ         R9, CX
	XORQ         R11, R11
	VBROADCASTSD pc+120(FP), Y2
	JMP          run

nextrow:
	LEAQ (R13)(R12*8), R13
	INCQ R10
	JMP  gridrow

	// One run of CX cells at SI, weights at DI, threshold in Y2.
run:
	XORQ DX, DX
	MOVQ CX, BX
	ANDQ $-8, BX
	JZ   quad

oct:
	VMOVUPD   (SI)(DX*8), Y4
	VMOVUPD   32(SI)(DX*8), Y5
	VSUBPD    Y0, Y4, Y4
	VSUBPD    Y0, Y5, Y5
	VCMPPD    $0x1e, Y2, Y4, Y6
	VCMPPD    $0x1e, Y2, Y5, Y7
	VMOVMSKPD Y6, R8
	VMOVMSKPD Y7, R9
	SHLQ      $4, R9
	ORQ       R9, R8
	POPCNTQ   R8, R8
	ADDQ      R8, AX
	VMULPD    (DI)(DX*8), Y1, Y6
	VMULPD    32(DI)(DX*8), Y1, Y7
	VADDPD    Y6, Y4, Y4
	VADDPD    Y7, Y5, Y5
	VMOVUPD   Y4, (SI)(DX*8)
	VMOVUPD   Y5, 32(SI)(DX*8)
	VMAXPD    Y3, Y4, Y3
	VMAXPD    Y8, Y5, Y8
	ADDQ      $8, DX
	CMPQ      DX, BX
	JLT       oct

quad:
	MOVQ      CX, BX
	ANDQ      $-4, BX
	CMPQ      DX, BX
	JGE       tail
	VMOVUPD   (SI)(DX*8), Y4
	VSUBPD    Y0, Y4, Y4
	VCMPPD    $0x1e, Y2, Y4, Y6
	VMOVMSKPD Y6, R8
	POPCNTQ   R8, R8
	ADDQ      R8, AX
	VMULPD    (DI)(DX*8), Y1, Y6
	VADDPD    Y6, Y4, Y4
	VMOVUPD   Y4, (SI)(DX*8)
	VMAXPD    Y3, Y4, Y3
	ADDQ      $4, DX

tail:
	CMPQ      DX, CX
	JGE       rundone
	VMOVSD    (SI)(DX*8), X4
	VSUBSD    X0, X4, X4
	VCMPSD    $0x1e, X2, X4, X6
	VMOVMSKPD X6, R8
	ANDQ      $1, R8
	ADDQ      R8, AX
	VMOVSD    (DI)(DX*8), X6
	VMULSD    X6, X1, X6
	VADDSD    X6, X4, X4
	VMOVSD    X4, (SI)(DX*8)
	VMAXSD    X9, X4, X9
	INCQ      DX
	JMP       tail

fold:
	// The accumulators' maxima in any order: they differ at most in a
	// zero's sign. Each lane holds the first zero it was fed, so the first
	// zero of the row is one of theirs: only when zero lanes of both signs
	// are left is it unknown here (mixed).
	VMAXPD       Y3, Y8, Y4
	VEXTRACTF128 $1, Y4, X5
	VMAXPD       X4, X5, X4
	VPERMILPD    $1, X4, X5
	VMAXSD       X4, X5, X4
	VMAXSD       X4, X9, X4
	XORQ         R8, R8
	VXORPD       X5, X5, X5
	VUCOMISD     X5, X4
	JNE          done
	JPS          done
	VCMPPD       $0, Y5, Y3, Y6
	VANDPD       Y3, Y6, Y7
	VMOVMSKPD    Y6, R9
	VMOVMSKPD    Y7, R10
	VCMPPD       $0, Y5, Y8, Y6
	VANDPD       Y8, Y6, Y7
	VMOVMSKPD    Y6, R11
	VMOVMSKPD    Y7, R12
	SHLQ         $4, R11
	SHLQ         $4, R12
	ORQ          R11, R9
	ORQ          R12, R10
	VCMPSD       $0, X5, X9, X6
	VANDPD       X9, X6, X7
	VMOVMSKPD    X6, R11
	VMOVMSKPD    X7, R12
	ANDQ         $1, R11
	ANDQ         $1, R12
	SHLQ         $8, R11
	SHLQ         $8, R12
	ORQ          R11, R9
	ORQ          R12, R10

	// R10: the lanes holding −0; R9 ^ R10: those holding +0.
	XORQ  R10, R9
	TESTQ R10, R10
	JZ    done
	TESTQ R9, R9
	JZ    done
	MOVQ  $1, R8

done:
	VZEROUPPER
	VMOVSD X4, out+136(FP)
	MOVQ   AX, ahead+144(FP)
	MOVB   R8, mixed+152(FP)
	RET

// func recenterAVX2(row []float64, mx float64)
TEXT ·recenterAVX2(SB), NOSPLIT, $0-32
	MOVQ         row_base+0(FP), SI
	MOVQ         row_len+8(FP), CX
	VBROADCASTSD mx+24(FP), Y0
	XORQ         DX, DX
	MOVQ         CX, BX
	ANDQ         $-8, BX
	JZ           quad

oct:
	VMOVUPD (SI)(DX*8), Y1
	VMOVUPD 32(SI)(DX*8), Y2
	VSUBPD  Y0, Y1, Y1
	VSUBPD  Y0, Y2, Y2
	VMOVUPD Y1, (SI)(DX*8)
	VMOVUPD Y2, 32(SI)(DX*8)
	ADDQ    $8, DX
	CMPQ    DX, BX
	JLT     oct

quad:
	MOVQ    CX, BX
	ANDQ    $-4, BX
	CMPQ    DX, BX
	JGE     tail
	VMOVUPD (SI)(DX*8), Y1
	VSUBPD  Y0, Y1, Y1
	VMOVUPD Y1, (SI)(DX*8)
	ADDQ    $4, DX

tail:
	CMPQ   DX, CX
	JGE    done
	VMOVSD (SI)(DX*8), X1
	VSUBSD X0, X1, X1
	VMOVSD X1, (SI)(DX*8)
	INCQ   DX
	JMP    tail

done:
	VZEROUPPER
	RET

// func countAboveAVX2(row []float64, th float64) int
//
// Counts the entries p with th < p (LT_OQ), which is p > th and false on a
// NaN.
TEXT ·countAboveAVX2(SB), NOSPLIT, $0-40
	MOVQ         row_base+0(FP), SI
	MOVQ         row_len+8(FP), CX
	VBROADCASTSD th+24(FP), Y0
	XORQ         AX, AX
	XORQ         DX, DX
	MOVQ         CX, BX
	ANDQ         $-8, BX
	JZ           quad

oct:
	VCMPPD    $0x11, (SI)(DX*8), Y0, Y1
	VCMPPD    $0x11, 32(SI)(DX*8), Y0, Y2
	VMOVMSKPD Y1, R8
	VMOVMSKPD Y2, R9
	SHLQ      $4, R9
	ORQ       R9, R8
	POPCNTQ   R8, R8
	ADDQ      R8, AX
	ADDQ      $8, DX
	CMPQ      DX, BX
	JLT       oct

quad:
	MOVQ      CX, BX
	ANDQ      $-4, BX
	CMPQ      DX, BX
	JGE       tail
	VCMPPD    $0x11, (SI)(DX*8), Y0, Y1
	VMOVMSKPD Y1, R8
	POPCNTQ   R8, R8
	ADDQ      R8, AX
	ADDQ      $4, DX

tail:
	CMPQ      DX, CX
	JGE       done
	VMOVSD    (SI)(DX*8), X1
	VCMPSD    $0x11, X1, X0, X2
	VMOVMSKPD X2, R8
	ANDQ      $1, R8
	ADDQ      R8, AX
	INCQ      DX
	JMP       tail

done:
	VZEROUPPER
	MOVQ AX, ret+32(FP)
	RET

// func countAtLeastAVX2(row []float64, th float64) int
//
// Counts the entries p with th ≤ p (LE_OQ), which is p ≥ th and false on a
// NaN.
TEXT ·countAtLeastAVX2(SB), NOSPLIT, $0-40
	MOVQ         row_base+0(FP), SI
	MOVQ         row_len+8(FP), CX
	VBROADCASTSD th+24(FP), Y0
	XORQ         AX, AX
	XORQ         DX, DX
	MOVQ         CX, BX
	ANDQ         $-8, BX
	JZ           quad

oct:
	VCMPPD    $0x12, (SI)(DX*8), Y0, Y1
	VCMPPD    $0x12, 32(SI)(DX*8), Y0, Y2
	VMOVMSKPD Y1, R8
	VMOVMSKPD Y2, R9
	SHLQ      $4, R9
	ORQ       R9, R8
	POPCNTQ   R8, R8
	ADDQ      R8, AX
	ADDQ      $8, DX
	CMPQ      DX, BX
	JLT       oct

quad:
	MOVQ      CX, BX
	ANDQ      $-4, BX
	CMPQ      DX, BX
	JGE       tail
	VCMPPD    $0x12, (SI)(DX*8), Y0, Y1
	VMOVMSKPD Y1, R8
	POPCNTQ   R8, R8
	ADDQ      R8, AX
	ADDQ      $4, DX

tail:
	CMPQ      DX, CX
	JGE       done
	VMOVSD    (SI)(DX*8), X1
	VCMPSD    $0x12, X1, X0, X2
	VMOVMSKPD X2, R8
	ANDQ      $1, R8
	ADDQ      R8, AX
	INCQ      DX
	JMP       tail

done:
	VZEROUPPER
	MOVQ AX, ret+32(FP)
	RET

// func prefetchLines(s []float64)
//
// One PREFETCHT0 for each 64-byte line from s's first entry to its end. A
// prefetch never faults and blocks nothing.
TEXT ·prefetchLines(SB), NOSPLIT, $0-24
	MOVQ s_base+0(FP), SI
	MOVQ s_len+8(FP), CX
	LEAQ (SI)(CX*8), CX

loop:
	CMPQ       SI, CX
	JCC        done
	PREFETCHT0 (SI)
	ADDQ       $64, SI
	JMP        loop

done:
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
//
// XCR0; called only when CPUID reports OSXSAVE.
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
