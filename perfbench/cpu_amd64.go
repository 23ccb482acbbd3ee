package main

func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// cpuHasAVX512IFMA reports whether the CPU advertises AVX512_IFMA
// (CPUID.(7,0):EBX bit 21). It says nothing about OS support or whether
// any kernel uses it; it only stamps results so numbers from IFMA and
// non-IFMA hosts are not compared unawares.
func cpuHasAVX512IFMA() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<21) != 0
}
