//go:build amd64 && !purego

// AVX2 butterfly stage kernels for the negacyclic NTT/INTT. The generic
// stage kernels run ONE Cooley-Tukey (forward) or Gentleman-Sande (inverse)
// stage over the whole polynomial, vectorized 4 butterflies at a time; they
// are called for stages whose block half-length t is >= 4, where every
// block is a whole number of 4-lane groups. The edge kernels below them
// take the t=2 and t=1 stages, where a block is shorter than a vector: they
// load two 4-lane groups, regroup the a- and b-halves of several blocks
// into one vector each with in-register permutes (VPERM2I128 for t=2,
// VPUNPCK{L,H}QDQ for t=1), run the same butterfly, and permute back. The
// arithmetic is exactly the scalar butterflies' — same Harvey lazy
// intervals ([0,4q) into a forward stage, [0,2q) between inverse stages),
// same reduction order — so the outputs are bit-identical.
//
// Register conventions (generic stage kernels):
//   DI  a-side block pointer      SI  twiddle table pointer (at [m] / [h])
//   R8  Shoup-companion pointer   R9  twiddle count (m or h)
//   R10 block half-length t       R11 twiddle index i
//   R13 b-side block pointer      CX  inner countdown (t/4 groups)
//   Y15 q broadcast, Y14 2q broadcast, Y13 0xFFFFFFFF lane mask
// The edge kernels keep Y13-Y15 and walk DI/SI/R8 linearly with CX
// counting 8-coefficient groups.

#include "textflag.h"
#include "mul64_amd64.h"

// func nttFwdStepAVX2(p []uint64, psi, psiShoup []uint64, q uint64, m, t int)
//
// Forward Shoup-twiddle stage: for each twiddle i < m, block at j1 = 2*i*t,
//   u = fold2q(a[j]);  v' = v*w - mulhi(v, wS)*q   (lazy Shoup, < 2q)
//   a[j] = u + v';  b[j] = u + 2q - v'             (both < 4q)
TEXT ·nttFwdStepAVX2(SB), NOSPLIT, $0-96
	MOVQ p_base+0(FP), DI
	MOVQ psi_base+24(FP), SI
	MOVQ psiShoup_base+48(FP), R8
	MOVQ m+80(FP), R9
	MOVQ t+88(FP), R10

	MOVQ q+72(FP), AX
	VMOVQ AX, X0
	VPBROADCASTQ X0, Y15    // q
	ADDQ AX, AX
	VMOVQ AX, X0
	VPBROADCASTQ X0, Y14    // 2q
	MOVQ $0x00000000FFFFFFFF, AX
	VMOVQ AX, X0
	VPBROADCASTQ X0, Y13    // lane mask

	LEAQ (SI)(R9*8), SI     // &psi[m]
	LEAQ (R8)(R9*8), R8     // &psiShoup[m]
	XORQ R11, R11           // i = 0

fwdILoop:
	CMPQ R11, R9
	JGE  fwdDone
	VPBROADCASTQ (SI)(R11*8), Y12    // w
	VPBROADCASTQ (R8)(R11*8), Y11    // wShoup
	LEAQ (DI)(R10*8), R13   // b = a + t
	MOVQ R10, CX

fwdJLoop:
	VMOVDQU (DI), Y0        // u (raw, < 4q)
	VMOVDQU (R13), Y1       // v (< 4q)
	CSUB(Y0, Y14, Y2)       // u in [0, 2q)
	MULHI64(Y1, Y11, Y3, Y4, Y5, Y6, Y7, Y13)  // Y3 = mulhi(v, wS)
	MULLO64(Y1, Y12, Y4, Y5, Y6)               // Y4 = v*w mod 2^64
	MULLO64(Y3, Y15, Y5, Y6, Y7)               // Y5 = mulhi*q mod 2^64
	VPSUBQ Y5, Y4, Y4       // v' in [0, 2q)
	VPADDQ Y4, Y0, Y1       // a' = u + v' < 4q
	VMOVDQU Y1, (DI)
	VPSUBQ Y4, Y14, Y2      // 2q - v'
	VPADDQ Y2, Y0, Y2       // b' = u + 2q - v' < 4q
	VMOVDQU Y2, (R13)
	ADDQ $32, DI
	ADDQ $32, R13
	SUBQ $4, CX
	JNZ  fwdJLoop

	LEAQ (DI)(R10*8), DI    // skip the b half: next block start
	INCQ R11
	JMP  fwdILoop

fwdDone:
	VZEROUPPER
	RET

// func nttInvStepAVX2(p []uint64, psiInv, psiInvShoup []uint64, q uint64, h, t int)
//
// Inverse Shoup-twiddle stage: for each twiddle i < h, block at j1 = 2*i*t,
//   a[j] = fold2q(u + v);  b[j] = (u + 2q - v)*w - mulhi(...)*q  (< 2q)
TEXT ·nttInvStepAVX2(SB), NOSPLIT, $0-96
	MOVQ p_base+0(FP), DI
	MOVQ psiInv_base+24(FP), SI
	MOVQ psiInvShoup_base+48(FP), R8
	MOVQ h+80(FP), R9
	MOVQ t+88(FP), R10

	MOVQ q+72(FP), AX
	VMOVQ AX, X0
	VPBROADCASTQ X0, Y15    // q
	ADDQ AX, AX
	VMOVQ AX, X0
	VPBROADCASTQ X0, Y14    // 2q
	MOVQ $0x00000000FFFFFFFF, AX
	VMOVQ AX, X0
	VPBROADCASTQ X0, Y13    // lane mask

	LEAQ (SI)(R9*8), SI     // &psiInv[h]
	LEAQ (R8)(R9*8), R8     // &psiInvShoup[h]
	XORQ R11, R11           // i = 0

invILoop:
	CMPQ R11, R9
	JGE  invDone
	VPBROADCASTQ (SI)(R11*8), Y12    // w
	VPBROADCASTQ (R8)(R11*8), Y11    // wShoup
	LEAQ (DI)(R10*8), R13   // b = a + t
	MOVQ R10, CX

invJLoop:
	VMOVDQU (DI), Y0        // u (< 2q)
	VMOVDQU (R13), Y1       // v (< 2q)
	VPADDQ Y1, Y0, Y2       // c = u + v < 4q
	CSUB(Y2, Y14, Y3)       // c in [0, 2q)
	VMOVDQU Y2, (DI)
	VPSUBQ Y1, Y14, Y2      // 2q - v
	VPADDQ Y2, Y0, Y0       // d = u + 2q - v < 4q
	MULHI64(Y0, Y11, Y3, Y4, Y5, Y6, Y7, Y13)  // Y3 = mulhi(d, wS)
	MULLO64(Y0, Y12, Y4, Y5, Y6)               // Y4 = d*w mod 2^64
	MULLO64(Y3, Y15, Y5, Y6, Y7)               // Y5 = mulhi*q mod 2^64
	VPSUBQ Y5, Y4, Y4       // lazy Shoup in [0, 2q)
	VMOVDQU Y4, (R13)
	ADDQ $32, DI
	ADDQ $32, R13
	SUBQ $4, CX
	JNZ  invJLoop

	LEAQ (DI)(R10*8), DI
	INCQ R11
	JMP  invILoop

invDone:
	VZEROUPPER
	RET

// EDGE_SETUP(SHIFT) takes DI = &p[0], CX = n, SI/R8 = the twiddle tables
// and AX = q; it moves SI and R8 to the stage's twiddle offset n >> SHIFT
// (m for forward, h for inverse), turns CX into the n/8 step count, and
// loads the Y13-Y15 constants from AX = q.
#define EDGE_SETUP(SHIFT) \
	MOVQ CX, R9; \
	SHRQ $SHIFT, R9; \
	LEAQ (SI)(R9*8), SI; \
	LEAQ (R8)(R9*8), R8; \
	SHRQ $3, CX; \
	VMOVQ AX, X0; \
	VPBROADCASTQ X0, Y15; \
	ADDQ AX, AX; \
	VMOVQ AX, X0; \
	VPBROADCASTQ X0, Y14; \
	MOVQ $0x00000000FFFFFFFF, AX; \
	VMOVQ AX, X0; \
	VPBROADCASTQ X0, Y13

// FWD_BFLY: u = Y2 (< 4q), v = Y3 (< 4q), twiddle Y12, Shoup Y11 ->
// a' = Y0, b' = Y1 (both < 4q); the forward butterfly of nttFwdStepAVX2.
#define FWD_BFLY \
	CSUB(Y2, Y14, Y4); \
	MULHI64(Y3, Y11, Y4, Y5, Y6, Y7, Y8, Y13); \
	MULLO64(Y3, Y12, Y5, Y6, Y7); \
	MULLO64(Y4, Y15, Y6, Y7, Y8); \
	VPSUBQ Y6, Y5, Y5; \
	VPADDQ Y5, Y2, Y0; \
	VPSUBQ Y5, Y14, Y1; \
	VPADDQ Y1, Y2, Y1

// INV_BFLY: u = Y2, v = Y3 (both < 2q), twiddle Y12, Shoup Y11 ->
// a' = Y0 = fold2q(u+v), b' = Y1 = lazy Shoup (u+2q-v)*w (both < 2q).
#define INV_BFLY \
	VPADDQ Y3, Y2, Y0; \
	CSUB(Y0, Y14, Y4); \
	VPSUBQ Y3, Y14, Y1; \
	VPADDQ Y1, Y2, Y1; \
	MULHI64(Y1, Y11, Y4, Y5, Y6, Y7, Y8, Y13); \
	MULLO64(Y1, Y12, Y5, Y6, Y7); \
	MULLO64(Y4, Y15, Y6, Y7, Y8); \
	VPSUBQ Y6, Y5, Y1

// Gather/scatter for t=2: a 4-lane group holds one block (a a b b);
// VPERM2I128 pairs the a-halves of two blocks into Y2 and the b-halves into
// Y3, and the same two permutes of (a', b') restore the block layout. The
// twiddles w_i w_i w_{i+1} w_{i+1} come from one VPERMQ of two contiguous
// table entries.
#define T2_GATHER \
	VMOVDQU (DI), Y0; \
	VMOVDQU 32(DI), Y1; \
	VPERM2I128 $0x20, Y1, Y0, Y2; \
	VPERM2I128 $0x31, Y1, Y0, Y3; \
	VPERMQ $0x50, (SI), Y12; \
	VPERMQ $0x50, (R8), Y11

#define T2_SCATTER \
	VPERM2I128 $0x20, Y1, Y0, Y2; \
	VPERM2I128 $0x31, Y1, Y0, Y3; \
	VMOVDQU Y2, (DI); \
	VMOVDQU Y3, 32(DI); \
	ADDQ $64, DI; \
	ADDQ $16, SI; \
	ADDQ $16, R8

// Gather/scatter for t=1: two groups a0 b0 a1 b1 | a2 b2 a3 b3 unpack to
// u = a0 a2 a1 a3 and v = b0 b2 b1 b3; the four contiguous twiddles are
// permuted into the same order (VPERMQ 0xD8), and unpacking (a', b')
// restores the pair layout.
#define T1_GATHER \
	VMOVDQU (DI), Y0; \
	VMOVDQU 32(DI), Y1; \
	VPUNPCKLQDQ Y1, Y0, Y2; \
	VPUNPCKHQDQ Y1, Y0, Y3; \
	VPERMQ $0xD8, (SI), Y12; \
	VPERMQ $0xD8, (R8), Y11

#define T1_SCATTER \
	VPUNPCKLQDQ Y1, Y0, Y2; \
	VPUNPCKHQDQ Y1, Y0, Y3; \
	VMOVDQU Y2, (DI); \
	VMOVDQU Y3, 32(DI); \
	ADDQ $64, DI; \
	ADDQ $32, SI; \
	ADDQ $32, R8

// func nttFwdT2AVX2(p []uint64, tw, twShoup []uint64, q uint64)
//
// Forward stage t=2 (m = n/4 blocks), two blocks per step. n >= 8.
TEXT ·nttFwdT2AVX2(SB), NOSPLIT, $0-80
	MOVQ p_base+0(FP), DI
	MOVQ p_len+8(FP), CX
	MOVQ tw_base+24(FP), SI
	MOVQ twShoup_base+48(FP), R8
	MOVQ q+72(FP), AX
	EDGE_SETUP(2)

fwdT2Loop:
	T2_GATHER
	FWD_BFLY
	T2_SCATTER
	DECQ CX
	JNZ  fwdT2Loop
	VZEROUPPER
	RET

// func nttFwdLastAVX2(p []uint64, tw, twShoup []uint64, q, fin uint64)
//
// Forward last stage t=1 (m = n/2 pairs), four pairs per step, with the
// output folds fused: x = u + v', y = u + 2q - v', each folded below 2q and
// then by fin — fin = q gives the canonical transform, fin = 0 makes the
// second fold a no-op (NTTLazy). n >= 8.
TEXT ·nttFwdLastAVX2(SB), NOSPLIT, $0-88
	MOVQ p_base+0(FP), DI
	MOVQ p_len+8(FP), CX
	MOVQ tw_base+24(FP), SI
	MOVQ twShoup_base+48(FP), R8
	MOVQ q+72(FP), AX
	EDGE_SETUP(1)
	MOVQ fin+80(FP), AX
	VMOVQ AX, X0
	VPBROADCASTQ X0, Y10

fwdLastLoop:
	T1_GATHER
	FWD_BFLY
	CSUB(Y0, Y14, Y4)
	CSUB(Y0, Y10, Y4)
	CSUB(Y1, Y14, Y5)
	CSUB(Y1, Y10, Y5)
	T1_SCATTER
	DECQ CX
	JNZ  fwdLastLoop
	VZEROUPPER
	RET

// func nttInvFirstAVX2(p []uint64, tw, twShoup []uint64, q uint64)
//
// Inverse first stage t=1 (h = n/2 pairs), four pairs per step. n >= 8.
TEXT ·nttInvFirstAVX2(SB), NOSPLIT, $0-80
	MOVQ p_base+0(FP), DI
	MOVQ p_len+8(FP), CX
	MOVQ tw_base+24(FP), SI
	MOVQ twShoup_base+48(FP), R8
	MOVQ q+72(FP), AX
	EDGE_SETUP(1)

invFirstLoop:
	T1_GATHER
	INV_BFLY
	T1_SCATTER
	DECQ CX
	JNZ  invFirstLoop
	VZEROUPPER
	RET

// func nttInvT2AVX2(p []uint64, tw, twShoup []uint64, q uint64)
//
// Inverse stage t=2 (h = n/4 blocks), two blocks per step. n >= 8.
TEXT ·nttInvT2AVX2(SB), NOSPLIT, $0-80
	MOVQ p_base+0(FP), DI
	MOVQ p_len+8(FP), CX
	MOVQ tw_base+24(FP), SI
	MOVQ twShoup_base+48(FP), R8
	MOVQ q+72(FP), AX
	EDGE_SETUP(2)

invT2Loop:
	T2_GATHER
	INV_BFLY
	T2_SCATTER
	DECQ CX
	JNZ  invT2Loop
	VZEROUPPER
	RET
