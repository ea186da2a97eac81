package cpu

// AVX2 reports whether the CPU has AVX2 and the OS saves the YMM registers.
// It is read once, at package init; an amd64 CPU without AVX2 runs the Go
// kernels, as every other GOARCH does.
var AVX2 = probeAVX2()

// probeAVX2 is AVX2's probe (cpu_amd64.s).
func probeAVX2() bool
