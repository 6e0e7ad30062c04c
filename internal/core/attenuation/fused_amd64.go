package attenuation

// fusedStressRowAVX2 runs FusedStress's row body over cells
// [off, off+n) of the windows in r, 8 cells per iteration; n must be a
// positive multiple of 8.
//
//go:noescape
func fusedStressRowAVX2(r *fusedRow, off, n int, dth, c1, c2 float32)
