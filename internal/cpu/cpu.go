// Package cpu holds the one CPU-feature probe the assembly kernels of
// internal/transform and internal/frame branch on, so the CPUID assembly
// exists once and every kernel reads the same answer.
package cpu
