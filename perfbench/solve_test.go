package main

import (
	"math"
	"testing"

	"repro/awp"
	"repro/internal/agg"
	"repro/internal/core/solver"
	"repro/internal/grid"
	"repro/internal/pfs"
)

func gridDims(nx, ny, nz int) grid.Dims { return grid.Dims{NX: nx, NY: ny, NZ: nz} }

// sameResult requires bit-identical PGV maps and seismograms.
func sameResult(t *testing.T, name string, got, want *solver.Result) {
	t.Helper()
	if len(got.PGVH) != len(want.PGVH) || len(got.Seismograms) != len(want.Seismograms) {
		t.Fatalf("%s: output shapes differ", name)
	}
	for i := range want.PGVH {
		if math.Float64bits(got.PGVH[i]) != math.Float64bits(want.PGVH[i]) {
			t.Fatalf("%s: PGVH[%d] = %g, want %g", name, i, got.PGVH[i], want.PGVH[i])
		}
	}
	for r := range want.Seismograms {
		if len(got.Seismograms[r]) != len(want.Seismograms[r]) {
			t.Fatalf("%s: receiver %d has %d samples, want %d", name, r, len(got.Seismograms[r]), len(want.Seismograms[r]))
		}
		for n := range want.Seismograms[r] {
			for c := 0; c < 3; c++ {
				if math.Float32bits(got.Seismograms[r][n][c]) != math.Float32bits(want.Seismograms[r][n][c]) {
					t.Fatalf("%s: seismogram %d sample %d differs", name, r, n)
				}
			}
		}
	}
}

// TestRunSolveMatchesAwpRun checks the benchmark's Prepare → NewStepper →
// Step… → Finish sequence (runSolve) against awp.Run on the awp-default and m8-mpml
// configurations, untraced and traced, and the committed references
// against both.
func TestRunSolveMatchesAwpRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size solves")
	}
	for _, c := range []struct {
		name    string
		dims    awp.Dims
		abc     solver.ABCKind
		ranks   int
		variant int
		spec    solveSpec
		tr      *tracer
	}{
		{"awp-default", awp.Dims{NX: 48, NY: 48, NZ: 32}, awp.SpongeABC, 1, 0, awpSpec(0), nil},
		{"m8-mpml", awp.Dims{NX: 64, NY: 64, NZ: 32}, awp.MPMLABC, 2, 1, m8Spec(1), newTracer()},
	} {
		q, sc := awpScenario(c.dims, c.abc, c.ranks, c.variant)
		want, err := awp.Run(q, sc)
		if err != nil {
			t.Fatal(err)
		}
		out, err := runSolve(c.spec, c.tr, 0)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, c.name, out.res, want)
		ref, err := loadReference(c.name, c.variant)
		if err != nil {
			t.Fatal(err)
		}
		if seis, pgv, ok := ref.check(want, ""); !ok || seis != 0 || pgv != 0 {
			t.Errorf("%s: awp.Run differs from the committed reference (seis %g, pgv %g)", c.name, seis, pgv)
		}
		if len(out.blockSec) != (sc.Steps+blockSteps-1)/blockSteps {
			t.Errorf("%s: %d timed blocks for %d steps", c.name, len(out.blockSec), sc.Steps)
		}
	}
}

// TestPipelineSolveMatchesSolverRun checks the pipeline's solve stage,
// run by runSolve, against solver.Run: PGV and the aggregated
// surface file must be identical.
func TestPipelineSolveMatchesSolverRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size solves")
	}
	want, wantSHA, err := pipelineReference(2)
	if err != nil {
		t.Fatal(err)
	}
	srcs, err := pipelineSource(2).Generate()
	if err != nil {
		t.Fatal(err)
	}
	scratch := pfs.New(pfs.Jaguar())
	scratch.SetStripe("out/", 0, 4<<20)
	sp := pipelineSolve(pipelineModel(), srcs, scratch, agg.Config{Aggregators: 2, OpenThrottle: agg.DefaultOpenThrottle})
	out, err := runSolve(sp, newTracer(), 0)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "pipeline", out.res, want)
	sha, err := fileSHA256(scratch, "out/surface.bin")
	if err != nil || sha != wantSHA {
		t.Errorf("surface file differs from solver.Run's (%v)", err)
	}
	if out.stripeErr != nil {
		t.Errorf("stripe audit: %v", out.stripeErr)
	}
}

// TestFarmIterationClean runs one traced farm iteration: on a clean farm
// every check must pass and the farm layers must be reported.
func TestFarmIterationClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full ensemble")
	}
	w := newFarmWorkload(3)
	s, err := w.iterate(newTracer())
	if err != nil {
		t.Fatal(err)
	}
	if s.failed != 0 || s.attempted <= farmScenarios+farmExtras {
		t.Fatalf("failed %d of %d operations", s.failed, s.attempted)
	}
	if s.layers["farm.useful_frac"] != 1 || s.layers["farm.attempt_s_p50"] <= 0 || s.extra["query_samples"] == 0 {
		t.Errorf("farm layers missing: %v %v", s.layers, s.extra)
	}
}
