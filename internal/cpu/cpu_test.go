package cpu

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestProbeFindsAVX2 catches a probe that says "no" on a CPU that has AVX2:
// every AVX2 kernel (the transform's and the four-candidate SAD) would then
// run in Go, bit-exact and two to three times slower, and no oracle test
// would notice. The kernel's own view of the CPU
// is /proc/cpuinfo's flags line.
func TestProbeFindsAVX2(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skipf("the probe is read against /proc/cpuinfo on linux/amd64, not %s/%s", runtime.GOOS, runtime.GOARCH)
	}
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		key, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(key) != "flags" {
			continue
		}
		if slices.Contains(strings.Fields(flags), "avx2") && !AVX2 {
			t.Fatal("/proc/cpuinfo lists avx2, but the probe reports no AVX2: every AVX2 kernel runs in Go")
		}
		return
	}
	t.Skip("/proc/cpuinfo has no flags line")
}
