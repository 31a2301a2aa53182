package main

import (
	"encoding/binary"
	"strings"
)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// cpuInfo reads the CPU brand string and the feature flags the kernels
// dispatch on straight from CPUID.
func cpuInfo() (model string, flags []string) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf >= 1 {
		if _, _, ecx, _ := cpuid(1, 0); ecx&(1<<12) != 0 {
			flags = append(flags, "fma")
		}
	}
	if maxLeaf >= 7 {
		_, ebx, ecx, _ := cpuid(7, 0)
		if ebx&(1<<5) != 0 {
			flags = append(flags, "avx2")
		}
		if ebx&(1<<16) != 0 {
			flags = append(flags, "avx512f")
		}
		if ecx&(1<<11) != 0 {
			flags = append(flags, "avx512_vnni")
		}
	}
	if maxExt, _, _, _ := cpuid(0x80000000, 0); maxExt >= 0x80000004 {
		var brand []byte
		for leaf := uint32(0x80000002); leaf <= 0x80000004; leaf++ {
			a, b, c, d := cpuid(leaf, 0)
			for _, r := range []uint32{a, b, c, d} {
				brand = binary.LittleEndian.AppendUint32(brand, r)
			}
		}
		model = strings.TrimSpace(strings.TrimRight(string(brand), "\x00"))
	}
	return model, flags
}
