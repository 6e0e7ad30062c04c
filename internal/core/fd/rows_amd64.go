package fd

// velocityRowAVX2 runs velocityFused's row body over cells [off, off+n)
// of the windows in r, 8 cells per iteration; n must be a positive
// multiple of 8.
//
//go:noescape
func velocityRowAVX2(r *velRow, off, n int, dth, c1, c2 float32)

// stressRowAVX2 is velocityRowAVX2 for stressFused.
//
//go:noescape
func stressRowAVX2(r *stressRow, off, n int, dth, c1, c2 float32)
