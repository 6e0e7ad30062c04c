// Package cpufeat reports the x86 vector extensions the stencil kernels
// can use. It is a stdlib-only stand-in for golang.org/x/sys/cpu, limited
// to the one feature the kernels need.
package cpufeat

// AVX2 reports whether the CPU implements AVX2 and the operating system
// saves the YMM register state across context switches. It is false on
// every architecture other than amd64.
var AVX2 = detectAVX2()
