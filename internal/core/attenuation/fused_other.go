//go:build !amd64

package attenuation

// Without the assembly row body useAVX2 is always false and vecCells
// returns 0, so this is never called.
func fusedStressRowAVX2(*fusedRow, int, int, float32, float32, float32) {
	panic("attenuation: no AVX2 row body")
}
