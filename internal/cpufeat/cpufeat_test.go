package cpufeat

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// On Linux the kernel's own feature flags are an independent witness:
// /proc/cpuinfo lists avx2 only when the CPU has it and the kernel enabled
// its register state.
func TestAVX2MatchesProcCPUInfo(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		if runtime.GOARCH != "amd64" && AVX2 {
			t.Fatal("AVX2 reported on a non-amd64 architecture")
		}
		t.Skip("needs linux/amd64")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	var flags []string
	for _, line := range strings.Split(string(info), "\n") {
		if strings.HasPrefix(line, "flags") {
			flags = strings.Fields(line)
			break
		}
	}
	want := false
	for _, f := range flags {
		if f == "avx2" {
			want = true
		}
	}
	if AVX2 != want {
		t.Fatalf("AVX2 = %v, /proc/cpuinfo says %v", AVX2, want)
	}
}
