package ring

// SIMD dispatch. The coefficient sweeps that dominate the CPU profile — the
// Harvey lazy-reduction NTT/INTT butterfly stages, the fixed-shift Barrett
// MAC, and the Shoup fixed-operand scalar sweeps — each exist in
// bit-identical forms: the portable scalar loops (the universal fallback,
// always compiled, selected on non-amd64 targets, under the `purego` build
// tag, on hosts without AVX2, or by an explicit override), hand-written
// AVX2 assembly processing four 64-bit lanes per step, and — for the NTT
// and INTT stages only — AVX-512 IFMA assembly processing eight. Selection
// happens once at package init: a CPUID/XGETBV probe picks the best level
// the host supports, and the HEAP_NOSIMD environment variable forces the
// scalar loops. SetSIMD changes it at runtime — the binaries expose it as
// -nosimd so a production regression can be bisected to the kernel set
// without rebuilding.
//
// The vector paths are required to be bit-identical to the scalar ones —
// not merely congruent modulo q. The Harvey lazy bounds (operands in
// [0, 4q), q < 2^61, every intermediate below 2^63 so signed 64-bit lane
// compares are exact), the exact 52-bit split of the IFMA Shoup quotient
// and the ≤2-correction fixed-shift Barrett argument carry over lane-wise;
// see DESIGN.md "Vectorized kernels" for the bound accounting and
// internal/ring/simd_test.go + FuzzVectorVsScalarKernels for the
// byte-for-byte equivalence locks.

// simdLevel is a kernel dispatch level; each level includes the kernels of
// the ones below it.
type simdLevel int32

const (
	levelNone simdLevel = iota // portable scalar loops only
	levelAVX2                  // 4-lane AVX2 kernels
	levelIFMA                  // 8-lane AVX-512 IFMA NTT/INTT stages on top of AVX2
)

var levelNames = [...]string{levelNone: "none", levelAVX2: "avx2", levelIFMA: "avx512ifma"}

// SIMDLevel reports the ISA level the ring kernels currently dispatch to:
// "avx512ifma" when the 8-lane IFMA NTT/INTT stages are active (rings with
// q < 2^50 use them; larger moduli and every other kernel run AVX2),
// "avx2" when the 4-lane vector paths are active, "none" when every kernel
// runs the portable scalar loops.
func SIMDLevel() string {
	return levelNames[activeLevel()]
}
