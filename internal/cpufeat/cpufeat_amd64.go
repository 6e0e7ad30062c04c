package cpufeat

// cpuid executes CPUID with the given leaf and subleaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 returns the low word of extended control register XCR0.
func xgetbv0() uint32

func detectAVX2() bool {
	const (
		osxsave = 1 << 27 // CPUID.1:ECX, OS uses XSAVE/XRSTOR
		avx     = 1 << 28 // CPUID.1:ECX
		avx2    = 1 << 5  // CPUID.(7,0):EBX
		ymmMask = 0x6     // XCR0: XMM and YMM state enabled
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(osxsave|avx) != osxsave|avx || xgetbv0()&ymmMask != ymmMask {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}
