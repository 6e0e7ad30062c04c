//go:build !amd64

package fd

// Without the assembly row bodies useAVX2 is always false and vecCells
// returns 0, so these are never called.

func velocityRowAVX2(*velRow, int, int, float32, float32, float32) { panic("fd: no AVX2 row body") }

func stressRowAVX2(*stressRow, int, int, float32, float32, float32) { panic("fd: no AVX2 row body") }
