//go:build !amd64

package boundary

// Without the assembly row bodies useAVX2 is always false, so these are
// never called.

func velocitySplitsAVX2(*velTab, int, int, int, int, float32, float32, float32) {
	panic("boundary: no AVX2 row body")
}

func normalSplitsAVX2(*normTab, int, int, int, int, float32, float32, float32) {
	panic("boundary: no AVX2 row body")
}

func shearSplitsAVX2(*shearTab, int, int, int, int, float32, float32, float32) {
	panic("boundary: no AVX2 row body")
}
