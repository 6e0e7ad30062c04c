package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-th percentile (p in (0, 100]) of
// xs: the smallest sample with at least p% of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	idx := nearestRank(len(s), p) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// supportsPercentile reports whether n samples leave at least ten samples
// strictly above the nearest-rank p-th percentile, so that the tail value
// is backed by more than one or two outliers.
func supportsPercentile(n int, p float64) bool {
	return n-nearestRank(n, p) >= 10
}

// nearestRank is the 1-based rank of the nearest-rank p-th percentile of
// n samples, ceil(p*n/100), guarded against float round-up.
func nearestRank(n int, p float64) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// tailPercentile picks the highest of the conventional tail percentiles
// that n samples support (see supportsPercentile), falling back to the
// median when even p90 is unsupported.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90} {
		if supportsPercentile(n, p) {
			return p
		}
	}
	return 50
}

// relL2 is ||got - ref||_2 / ||ref||_2, or ||got||_2 when ref is all
// zero. Mismatched lengths count as a total mismatch (1).
func relL2(got, ref []float64) float64 {
	if len(got) != len(ref) {
		return 1
	}
	var num, den float64
	for i := range ref {
		d := got[i] - ref[i]
		num += d * d
		den += ref[i] * ref[i]
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

// maxRelErr is max_i |got_i - ref_i| / max_i |ref_i|: the worst pointwise
// error relative to the map's peak (so quiet corner cells do not blow it
// up). Mismatched lengths count as a total mismatch (1).
func maxRelErr(got, ref []float64) float64 {
	if len(got) != len(ref) {
		return 1
	}
	var peak, worst float64
	for i := range ref {
		peak = math.Max(peak, math.Abs(ref[i]))
		worst = math.Max(worst, math.Abs(got[i]-ref[i]))
	}
	if peak == 0 {
		return worst
	}
	return worst / peak
}

// splitCost divides timed blocks of steps at split (a step index on a
// block boundary) and returns the mean nanoseconds per cell-step before
// and after it. blockSec[b] times steps [b*blockSteps, (b+1)*blockSteps),
// the last block possibly shorter (totalSteps bounds it). A side with no
// steps reports 0.
func splitCost(blockSec []float64, blockSteps, totalSteps, split int, cells int) (transientNs, steadyNs float64) {
	var tSec, sSec float64
	var tSteps, sSteps int
	for b, sec := range blockSec {
		lo := b * blockSteps
		hi := min(lo+blockSteps, totalSteps)
		if lo < split {
			tSec += sec
			tSteps += hi - lo
		} else {
			sSec += sec
			sSteps += hi - lo
		}
	}
	perCell := func(sec float64, steps int) float64 {
		if steps == 0 || cells == 0 {
			return 0
		}
		return sec * 1e9 / (float64(steps) * float64(cells))
	}
	return perCell(tSec, tSteps), perCell(sSec, sSteps)
}

// unattributedFrac is 1 - attributed/wall: the share of measured wall
// time that no reported phase accounts for. A zero wall reports 0.
func unattributedFrac(attributedSec, wallSec float64) float64 {
	if wallSec <= 0 {
		return 0
	}
	return 1 - attributedSec/wallSec
}
