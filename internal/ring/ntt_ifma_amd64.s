//go:build amd64 && !purego

// AVX-512 IFMA butterfly stage kernels for the NTT/INTT: the avx512ifma
// dispatch level, used for rings with q < 2^50. They run 8 butterflies per
// step and replace the AVX2 kernels' emulated 64x64 multiplies with an
// exact Shoup quotient built from 52-bit products. With every operand
// v < 4q < 2^52 and the 64-bit Shoup companion split wS = wH*2^52 + wL
// (wL < 2^52, wH < 2^12):
//
//   v*wS = 2^52*(v*wH + madd52hi(v, wL)) + madd52lo(v, wL)
//
// and the low term is below 2^52, so
//
//   floor(v*wS / 2^64) = (v*wH + madd52hi(v, wL)) >> 12
//
// exactly — the same quotient the 64-bit Shoup multiply takes, so no new
// twiddle tables are needed and every lazy intermediate is lane-for-lane
// identical to the scalar and AVX2 paths. The remainder v*w - hi*q lies in
// [0, 2q) ⊂ [0, 2^52), so it is computed modulo 2^52 as
// madd52lo(v, w) + madd52lo(hi, 2^52 - q), masked to 52 bits. The
// conditional subtractions are VPMINUQ(x, x - b): exact for any x and b,
// and a no-op for b = 0.
//
// Kernels per stage shape:
//   t >= 8   nttFwdStepIFMA / nttInvStepIFMA: twiddle broadcast per block
//   t = 4    VSHUFI64X2 pairs the 4-lane halves of two blocks
//   t = 2    VSHUFI64X2 gathers the 2-lane halves of four blocks;
//            VPERMI2Q scatters them back
//   t = 1    VPUNPCK{L,H}QDQ splits eight pairs; unpacking again restores
// The short-block kernels expand their contiguous twiddles to lane order
// with one VPERMQ from memory and need n >= 16.
//
// Pinned registers: Z30 2q, Z29 2^52 - q, Z28 2^52 - 1, Z27 fin,
// Z26 twiddle lane index, Z24/Z25 the t=2 scatter indices.

#include "textflag.h"

// Twiddle lane indices: t=4 repeats each of 2 twiddles over a 4-lane half,
// t=2 each of 4 over a 2-lane half, t=1 interleaves 8 in unpack order.
DATA twIdxT4<>+0(SB)/8, $0
DATA twIdxT4<>+8(SB)/8, $0
DATA twIdxT4<>+16(SB)/8, $0
DATA twIdxT4<>+24(SB)/8, $0
DATA twIdxT4<>+32(SB)/8, $1
DATA twIdxT4<>+40(SB)/8, $1
DATA twIdxT4<>+48(SB)/8, $1
DATA twIdxT4<>+56(SB)/8, $1
GLOBL twIdxT4<>(SB), RODATA|NOPTR, $64

DATA twIdxT2<>+0(SB)/8, $0
DATA twIdxT2<>+8(SB)/8, $0
DATA twIdxT2<>+16(SB)/8, $1
DATA twIdxT2<>+24(SB)/8, $1
DATA twIdxT2<>+32(SB)/8, $2
DATA twIdxT2<>+40(SB)/8, $2
DATA twIdxT2<>+48(SB)/8, $3
DATA twIdxT2<>+56(SB)/8, $3
GLOBL twIdxT2<>(SB), RODATA|NOPTR, $64

DATA twIdxT1<>+0(SB)/8, $0
DATA twIdxT1<>+8(SB)/8, $4
DATA twIdxT1<>+16(SB)/8, $1
DATA twIdxT1<>+24(SB)/8, $5
DATA twIdxT1<>+32(SB)/8, $2
DATA twIdxT1<>+40(SB)/8, $6
DATA twIdxT1<>+48(SB)/8, $3
DATA twIdxT1<>+56(SB)/8, $7
GLOBL twIdxT1<>(SB), RODATA|NOPTR, $64

// t=2 scatter: lanes (a'0 a'1 b'0 b'1 a'2 a'3 b'2 b'3) and the upper twin,
// indexing a' as 0-7 and b' as 8-15.
DATA scatT2<>+0(SB)/8, $0
DATA scatT2<>+8(SB)/8, $1
DATA scatT2<>+16(SB)/8, $8
DATA scatT2<>+24(SB)/8, $9
DATA scatT2<>+32(SB)/8, $2
DATA scatT2<>+40(SB)/8, $3
DATA scatT2<>+48(SB)/8, $10
DATA scatT2<>+56(SB)/8, $11
DATA scatT2<>+64(SB)/8, $4
DATA scatT2<>+72(SB)/8, $5
DATA scatT2<>+80(SB)/8, $12
DATA scatT2<>+88(SB)/8, $13
DATA scatT2<>+96(SB)/8, $6
DATA scatT2<>+104(SB)/8, $7
DATA scatT2<>+112(SB)/8, $14
DATA scatT2<>+120(SB)/8, $15
GLOBL scatT2<>(SB), RODATA|NOPTR, $128

// CSUBZ(X, B, T): X -= B where X >= B, per lane, as min(X, X - B).
#define CSUBZ(X, B, T) \
	VPSUBQ  B, X, T; \
	VPMINUQ T, X, X

// SPLIT52(WS, WL, WH): WL = WS mod 2^52, WH = WS >> 52.
#define SPLIT52(WS, WL, WH) \
	VPSRLQ $52, WS, WH; \
	VPANDQ Z28, WS, WL

// SHOUP52(V, W, WL, WH, R, H): R = V*W - floor(V*wS/2^64)*q, the lazy
// Shoup product in [0, 2q), for V < 2^52 (see the header).
#define SHOUP52(V, W, WL, WH, R, H) \
	VPMULLQ     WH, V, H; \
	VPMADD52HUQ WL, V, H; \
	VPSRLQ      $12, H, H; \
	VPXORQ      R, R, R; \
	VPMADD52LUQ W, V, R; \
	VPMADD52LUQ Z29, H, R; \
	VPANDQ      Z28, R, R

// FWD_BFLY: u = Z2 (< 4q), v = Z3 (< 4q), twiddle Z12, split Shoup
// Z10/Z9 -> a' = Z0, b' = Z1 (both < 4q).
#define FWD_BFLY \
	CSUBZ(Z2, Z30, Z4); \
	SHOUP52(Z3, Z12, Z10, Z9, Z5, Z6); \
	VPADDQ Z5, Z2, Z0; \
	VPSUBQ Z5, Z30, Z1; \
	VPADDQ Z1, Z2, Z1

// INV_BFLY: u = Z2, v = Z3 (both < 2q) -> a' = Z0 = fold2q(u+v),
// b' = Z1 = lazy Shoup (u+2q-v)*w (both < 2q).
#define INV_BFLY \
	VPADDQ Z3, Z2, Z0; \
	CSUBZ(Z0, Z30, Z4); \
	VPSUBQ Z3, Z30, Z7; \
	VPADDQ Z7, Z2, Z7; \
	SHOUP52(Z7, Z12, Z10, Z9, Z1, Z6)

// CONSTS: Z30 = 2q, Z29 = 2^52 - q, Z28 = 2^52 - 1 from AX = q.
#define CONSTS \
	LEAQ (AX)(AX*1), BX; \
	VPBROADCASTQ BX, Z30; \
	MOVQ $0x10000000000000, BX; \
	SUBQ AX, BX; \
	VPBROADCASTQ BX, Z29; \
	MOVQ $0xFFFFFFFFFFFFF, BX; \
	VPBROADCASTQ BX, Z28

// STEP_SETUP: generic stage registers, as in the AVX2 stage kernels, from
// DI = &p[0], SI/R8 = the twiddle tables, R9 = m, R10 = t, AX = q.
#define STEP_SETUP \
	CONSTS; \
	LEAQ (SI)(R9*8), SI; \
	LEAQ (R8)(R9*8), R8; \
	XORQ R11, R11

// EDGE_SETUP(SHIFT, IDX): from DI = &p[0], CX = n, SI/R8 = the twiddle
// tables and AX = q, move SI/R8 to twiddle offset n >> SHIFT, make CX the
// n/16 step count, and load Z26 = the twiddle lane index IDX.
#define EDGE_SETUP(SHIFT, IDX) \
	MOVQ CX, R9; \
	SHRQ $SHIFT, R9; \
	LEAQ (SI)(R9*8), SI; \
	LEAQ (R8)(R9*8), R8; \
	SHRQ $4, CX; \
	CONSTS; \
	VMOVDQU64 IDX(SB), Z26

// EDGE_TW: this step's twiddles in lane order (Z12) and their split Shoup
// companions (Z10 low, Z9 high).
#define EDGE_TW \
	VPERMQ (SI), Z26, Z12; \
	VPERMQ (R8), Z26, Z11; \
	SPLIT52(Z11, Z10, Z9)

#define T4_GATHER \
	VMOVDQU64 (DI), Z0; \
	VMOVDQU64 64(DI), Z1; \
	VSHUFI64X2 $0x44, Z1, Z0, Z2; \
	VSHUFI64X2 $0xEE, Z1, Z0, Z3

#define T4_SCATTER(TWSTEP) \
	VSHUFI64X2 $0x44, Z1, Z0, Z2; \
	VSHUFI64X2 $0xEE, Z1, Z0, Z3; \
	EDGE_STORE(TWSTEP)

#define T2_GATHER \
	VMOVDQU64 (DI), Z0; \
	VMOVDQU64 64(DI), Z1; \
	VSHUFI64X2 $0x88, Z1, Z0, Z2; \
	VSHUFI64X2 $0xDD, Z1, Z0, Z3

#define T2_SCATTER(TWSTEP) \
	VMOVDQA64 Z25, Z2; \
	VPERMI2Q  Z1, Z0, Z2; \
	VMOVDQA64 Z24, Z3; \
	VPERMI2Q  Z1, Z0, Z3; \
	EDGE_STORE(TWSTEP)

#define T1_GATHER \
	VMOVDQU64 (DI), Z0; \
	VMOVDQU64 64(DI), Z1; \
	VPUNPCKLQDQ Z1, Z0, Z2; \
	VPUNPCKHQDQ Z1, Z0, Z3

#define T1_SCATTER(TWSTEP) \
	VPUNPCKLQDQ Z1, Z0, Z2; \
	VPUNPCKHQDQ Z1, Z0, Z3; \
	EDGE_STORE(TWSTEP)

#define EDGE_STORE(TWSTEP) \
	VMOVDQU64 Z2, (DI); \
	VMOVDQU64 Z3, 64(DI); \
	ADDQ $128, DI; \
	ADDQ $TWSTEP, SI; \
	ADDQ $TWSTEP, R8

// func nttFwdStepIFMA(p []uint64, tw, twShoup []uint64, q uint64, m, t int)
//
// Forward stage with block half-length t >= 8 (m blocks).
TEXT ·nttFwdStepIFMA(SB), NOSPLIT, $0-96
	MOVQ p_base+0(FP), DI
	MOVQ tw_base+24(FP), SI
	MOVQ twShoup_base+48(FP), R8
	MOVQ m+80(FP), R9
	MOVQ t+88(FP), R10
	MOVQ q+72(FP), AX
	STEP_SETUP

fwdILoop:
	CMPQ R11, R9
	JGE  fwdDone
	VPBROADCASTQ (SI)(R11*8), Z12
	VPBROADCASTQ (R8)(R11*8), Z11
	SPLIT52(Z11, Z10, Z9)
	LEAQ (DI)(R10*8), R13
	MOVQ R10, CX

fwdJLoop:
	VMOVDQU64 (DI), Z2
	VMOVDQU64 (R13), Z3
	FWD_BFLY
	VMOVDQU64 Z0, (DI)
	VMOVDQU64 Z1, (R13)
	ADDQ $64, DI
	ADDQ $64, R13
	SUBQ $8, CX
	JNZ  fwdJLoop

	LEAQ (DI)(R10*8), DI
	INCQ R11
	JMP  fwdILoop

fwdDone:
	VZEROUPPER
	RET

// func nttInvStepIFMA(p []uint64, tw, twShoup []uint64, q uint64, m, t int)
//
// Inverse stage with block half-length t >= 8 (m = h blocks).
TEXT ·nttInvStepIFMA(SB), NOSPLIT, $0-96
	MOVQ p_base+0(FP), DI
	MOVQ tw_base+24(FP), SI
	MOVQ twShoup_base+48(FP), R8
	MOVQ m+80(FP), R9
	MOVQ t+88(FP), R10
	MOVQ q+72(FP), AX
	STEP_SETUP

invILoop:
	CMPQ R11, R9
	JGE  invDone
	VPBROADCASTQ (SI)(R11*8), Z12
	VPBROADCASTQ (R8)(R11*8), Z11
	SPLIT52(Z11, Z10, Z9)
	LEAQ (DI)(R10*8), R13
	MOVQ R10, CX

invJLoop:
	VMOVDQU64 (DI), Z2
	VMOVDQU64 (R13), Z3
	INV_BFLY
	VMOVDQU64 Z0, (DI)
	VMOVDQU64 Z1, (R13)
	ADDQ $64, DI
	ADDQ $64, R13
	SUBQ $8, CX
	JNZ  invJLoop

	LEAQ (DI)(R10*8), DI
	INCQ R11
	JMP  invILoop

invDone:
	VZEROUPPER
	RET

// func nttFwdT4IFMA(p []uint64, tw, twShoup []uint64, q uint64)
//
// Forward stage t=4 (m = n/8 blocks), two blocks per step.
TEXT ·nttFwdT4IFMA(SB), NOSPLIT, $0-80
	MOVQ p_base+0(FP), DI
	MOVQ p_len+8(FP), CX
	MOVQ tw_base+24(FP), SI
	MOVQ twShoup_base+48(FP), R8
	MOVQ q+72(FP), AX
	EDGE_SETUP(3, twIdxT4<>)

fwdT4Loop:
	T4_GATHER
	EDGE_TW
	FWD_BFLY
	T4_SCATTER(16)
	DECQ CX
	JNZ  fwdT4Loop
	VZEROUPPER
	RET

// func nttFwdT2IFMA(p []uint64, tw, twShoup []uint64, q uint64)
//
// Forward stage t=2 (m = n/4 blocks), four blocks per step.
TEXT ·nttFwdT2IFMA(SB), NOSPLIT, $0-80
	MOVQ p_base+0(FP), DI
	MOVQ p_len+8(FP), CX
	MOVQ tw_base+24(FP), SI
	MOVQ twShoup_base+48(FP), R8
	MOVQ q+72(FP), AX
	EDGE_SETUP(2, twIdxT2<>)
	VMOVDQU64 scatT2<>+0(SB), Z25
	VMOVDQU64 scatT2<>+64(SB), Z24

fwdT2Loop:
	T2_GATHER
	EDGE_TW
	FWD_BFLY
	T2_SCATTER(32)
	DECQ CX
	JNZ  fwdT2Loop
	VZEROUPPER
	RET

// func nttFwdLastIFMA(p []uint64, tw, twShoup []uint64, q, fin uint64)
//
// Forward last stage t=1 (m = n/2 pairs), eight pairs per step, with the
// output folds fused (below 2q, then by fin: q canonical, 0 lazy).
TEXT ·nttFwdLastIFMA(SB), NOSPLIT, $0-88
	MOVQ p_base+0(FP), DI
	MOVQ p_len+8(FP), CX
	MOVQ tw_base+24(FP), SI
	MOVQ twShoup_base+48(FP), R8
	MOVQ q+72(FP), AX
	EDGE_SETUP(1, twIdxT1<>)
	MOVQ fin+80(FP), BX
	VPBROADCASTQ BX, Z27

fwdLastLoop:
	T1_GATHER
	EDGE_TW
	FWD_BFLY
	CSUBZ(Z0, Z30, Z4)
	CSUBZ(Z0, Z27, Z4)
	CSUBZ(Z1, Z30, Z5)
	CSUBZ(Z1, Z27, Z5)
	T1_SCATTER(64)
	DECQ CX
	JNZ  fwdLastLoop
	VZEROUPPER
	RET

// func nttInvFirstIFMA(p []uint64, tw, twShoup []uint64, q uint64)
//
// Inverse first stage t=1 (h = n/2 pairs), eight pairs per step.
TEXT ·nttInvFirstIFMA(SB), NOSPLIT, $0-80
	MOVQ p_base+0(FP), DI
	MOVQ p_len+8(FP), CX
	MOVQ tw_base+24(FP), SI
	MOVQ twShoup_base+48(FP), R8
	MOVQ q+72(FP), AX
	EDGE_SETUP(1, twIdxT1<>)

invFirstLoop:
	T1_GATHER
	EDGE_TW
	INV_BFLY
	T1_SCATTER(64)
	DECQ CX
	JNZ  invFirstLoop
	VZEROUPPER
	RET

// func nttInvT2IFMA(p []uint64, tw, twShoup []uint64, q uint64)
//
// Inverse stage t=2 (h = n/4 blocks), four blocks per step.
TEXT ·nttInvT2IFMA(SB), NOSPLIT, $0-80
	MOVQ p_base+0(FP), DI
	MOVQ p_len+8(FP), CX
	MOVQ tw_base+24(FP), SI
	MOVQ twShoup_base+48(FP), R8
	MOVQ q+72(FP), AX
	EDGE_SETUP(2, twIdxT2<>)
	VMOVDQU64 scatT2<>+0(SB), Z25
	VMOVDQU64 scatT2<>+64(SB), Z24

invT2Loop:
	T2_GATHER
	EDGE_TW
	INV_BFLY
	T2_SCATTER(32)
	DECQ CX
	JNZ  invT2Loop
	VZEROUPPER
	RET

// func nttInvT4IFMA(p []uint64, tw, twShoup []uint64, q uint64)
//
// Inverse stage t=4 (h = n/8 blocks), two blocks per step.
TEXT ·nttInvT4IFMA(SB), NOSPLIT, $0-80
	MOVQ p_base+0(FP), DI
	MOVQ p_len+8(FP), CX
	MOVQ tw_base+24(FP), SI
	MOVQ twShoup_base+48(FP), R8
	MOVQ q+72(FP), AX
	EDGE_SETUP(3, twIdxT4<>)

invT4Loop:
	T4_GATHER
	EDGE_TW
	INV_BFLY
	T4_SCATTER(16)
	DECQ CX
	JNZ  invT4Loop
	VZEROUPPER
	RET
