package boundary

// velocitySplitsAVX2 runs velocitySplits over the n cells of the row at
// offsets (fo, so, co) of t, 8 cells per iteration and the last n mod 8
// under a lane mask.
//
//go:noescape
func velocitySplitsAVX2(t *velTab, fo, so, co, n int, dth, c1, c2 float32)

// normalSplitsAVX2 is velocitySplitsAVX2 for normalSplits.
//
//go:noescape
func normalSplitsAVX2(t *normTab, fo, so, co, n int, dth, c1, c2 float32)

// shearSplitsAVX2 is velocitySplitsAVX2 for shearSplits.
//
//go:noescape
func shearSplitsAVX2(t *shearTab, fo, so, co, n int, dth, c1, c2 float32)
