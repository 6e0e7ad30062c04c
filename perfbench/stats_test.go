package main

import (
	"math"
	"testing"
)

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g, want 2.5", got)
	}
	// 1..1000: the nearest-rank p99 is 990, with exactly ten samples
	// (991..1000) beyond it.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990", got)
	}
	if got := percentile(xs, 50); got != 500 {
		t.Errorf("p50 of 1..1000 = %g, want 500", got)
	}
	if !supportsPercentile(1000, 99) {
		t.Error("1000 samples leave 10 beyond p99; want supported")
	}
	if supportsPercentile(999, 99) {
		t.Error("999 samples leave 9 beyond p99; want unsupported")
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{10000, 99.9}, {1000, 99}, {999, 95}, {200, 95}, {100, 90}, {99, 50}, {0, 50}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestSelfTimesNestedSpans(t *testing.T) {
	ms := int64(1e6)
	spans := []span{
		{ID: 1, Name: "iteration", Start: 0, End: 100 * ms},
		// Two concurrent children overlapping in [20, 30) ms: their union
		// covers [10, 50) = 40 ms of the parent.
		{ID: 2, Parent: 1, Name: "rank0", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "rank1", Start: 20 * ms, End: 50 * ms},
		// A grandchild covers half of rank0; rank0 also has 4 ms of
		// folded program phases.
		{ID: 4, Parent: 2, Name: "kernel", Start: 10 * ms, End: 20 * ms},
		// A child sticking out of its parent counts only inside it.
		{ID: 5, Parent: 3, Name: "late", Start: 45 * ms, End: 60 * ms},
	}
	spans[1].Folded = map[string]float64{"velocity": 0.003, "stress": 0.001}
	want := []float64{0.060, 0.006, 0.025, 0.010, 0.015}
	got := selfTimes(spans)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("self(%s) = %g, want %g", spans[i].Name, got[i], want[i])
		}
	}
	tot := layerTotals(spans)
	if lt := tot["phase.velocity"]; lt.SelfS != 0.003 || lt.Spans != 1 {
		t.Errorf("folded phase total = %+v", lt)
	}
	// Folded phases larger than the span clamp self time at zero.
	spans[3].Folded = map[string]float64{"stress": 1}
	if got := selfTimes(spans)[3]; got != 0 {
		t.Errorf("over-attributed self time = %g, want 0", got)
	}
}

func TestRelativeErrors(t *testing.T) {
	ref := []float64{3, 4}
	if got := relL2(ref, ref); got != 0 {
		t.Errorf("relL2 identical = %g", got)
	}
	// ||(0.3, -0.4)|| / ||(3, 4)|| = 0.5 / 5.
	if got := relL2([]float64{3.3, 3.6}, ref); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("relL2 = %g, want 0.1", got)
	}
	if got := relL2([]float64{1}, ref); got != 1 {
		t.Errorf("relL2 length mismatch = %g, want 1", got)
	}
	if got := relL2([]float64{0, 2}, []float64{0, 0}); got != 2 {
		t.Errorf("relL2 zero reference = %g, want 2", got)
	}
	// Worst pointwise error 0.4 over peak 4.
	if got := maxRelErr([]float64{3.3, 3.6}, ref); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("maxRelErr = %g, want 0.1", got)
	}
}

func TestSplitCost(t *testing.T) {
	// 25 steps in blocks of 10: [0,10) 2 s, [10,20) 1 s, [20,25) 0.25 s,
	// over 1000 cells.
	blocks := []float64{2, 1, 0.25}
	tr, st := splitCost(blocks, 10, 25, 10, 1000)
	if math.Abs(tr-2e9/(10*1000)) > 1e-6 {
		t.Errorf("transient = %g ns, want %g", tr, 2e9/(10*1000))
	}
	if math.Abs(st-1.25e9/(15*1000)) > 1e-6 {
		t.Errorf("steady = %g ns, want %g", st, 1.25e9/(15*1000))
	}
	// A split past the last step leaves no steady state.
	tr, st = splitCost(blocks, 10, 25, 60, 1000)
	if st != 0 || math.Abs(tr-3.25e9/(25*1000)) > 1e-6 {
		t.Errorf("all-transient split = %g, %g", tr, st)
	}
}

func TestUnattributedFrac(t *testing.T) {
	if got := unattributedFrac(9, 10); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("unattributed = %g, want 0.1", got)
	}
	if got := unattributedFrac(11, 10); math.Abs(got+0.1) > 1e-12 {
		t.Errorf("over-attributed = %g, want -0.1", got)
	}
	if got := unattributedFrac(1, 0); got != 0 {
		t.Errorf("zero wall = %g, want 0", got)
	}
}

func TestShellAndSeedVariant(t *testing.T) {
	// 10x10x10 with width 2 and a free surface: interior 6x6x8.
	if got := absorbingShellCells(gridDims(10, 10, 10), 2, true); got != 1000-6*6*8 {
		t.Errorf("shell = %d, want %d", got, 1000-6*6*8)
	}
	if got := absorbingShellCells(gridDims(10, 10, 10), 2, false); got != 1000-6*6*6 {
		t.Errorf("shell without free surface = %d", got)
	}
	for seed, want := range map[int64]int{0: 0, 5: 1, -1: 3, -4: 0} {
		if got := seedVariant(seed, 4); got != want {
			t.Errorf("seedVariant(%d) = %d, want %d", seed, got, want)
		}
	}
}
