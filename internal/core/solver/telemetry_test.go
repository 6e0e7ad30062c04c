package solver

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/cvm"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/telemetry"
)

// Telemetry must be a pure observer: enabling it cannot change a single
// bit of the physics, under any comm model, thread count, or halo layout.
func TestTelemetryBitIdentity(t *testing.T) {
	q := cvm.SoCal(2400, 2400, 1600, 400)
	models := []CommModel{Synchronous, Asynchronous, AsyncReduced, AsyncOverlap}
	for _, model := range models {
		for _, threads := range []int{1, 4} {
			for _, coalesce := range []bool{false, true} {
				mk := func(tel *telemetry.Options) Options {
					opt := baseOptions(mpi.NewCart(2, 2, 1))
					opt.Steps = 40
					opt.Comm = model
					opt.Threads = threads
					opt.CoalesceHalo = coalesce
					opt.Telemetry = tel
					return opt
				}
				ref, err := Run(q, mk(nil))
				if err != nil {
					t.Fatal(err)
				}
				got, err := Run(q, mk(&telemetry.Options{TraceEvents: 256}))
				if err != nil {
					t.Fatal(err)
				}
				label := model.String()
				for r := range ref.Seismograms {
					for n := range ref.Seismograms[r] {
						if ref.Seismograms[r][n] != got.Seismograms[r][n] {
							t.Fatalf("%s/threads=%d/coalesce=%v: telemetry changed receiver %d sample %d",
								label, threads, coalesce, r, n)
						}
					}
				}
				for i := range ref.PGVH {
					if ref.PGVH[i] != got.PGVH[i] {
						t.Fatalf("%s/threads=%d/coalesce=%v: telemetry changed PGV at %d",
							label, threads, coalesce, i)
					}
				}
				if ref.Telemetry != nil {
					t.Fatal("report present with telemetry off")
				}
				rep := got.Telemetry
				if rep == nil {
					t.Fatal("report missing with telemetry on")
				}
				if rep.Ranks != 4 || rep.StepWindows != 40 {
					t.Fatalf("%s: report ranks=%d windows=%d", label, rep.Ranks, rep.StepWindows)
				}
				if rep.Stat(telemetry.Velocity).Spans == 0 || rep.Stat(telemetry.Stress).Spans == 0 {
					t.Fatalf("%s: compute phases unrecorded", label)
				}
				for _, p := range []telemetry.Phase{telemetry.Pack, telemetry.Send, telemetry.Recv, telemetry.Unpack} {
					if rep.Stat(p).Spans == 0 {
						t.Fatalf("%s: comm phase %v unrecorded", label, p)
					}
				}
				if syncSpans := rep.Stat(telemetry.Sync).Spans; (model == Synchronous) != (syncSpans > 0) {
					t.Fatalf("%s: sync spans = %d", label, syncSpans)
				}
				if len(rep.Neighbors) == 0 {
					t.Fatalf("%s: neighbor counters missing", label)
				}
				if len(rep.Events) == 0 {
					t.Fatalf("%s: event trace empty", label)
				}
			}
		}
	}
}

// The aggregated trace must export as loadable Chrome trace-event JSON.
func TestTelemetryTraceExport(t *testing.T) {
	opt := baseOptions(mpi.NewCart(2, 1, 1))
	opt.Steps = 10
	opt.Telemetry = &telemetry.Options{TraceEvents: 128}
	res, err := Run(cvm.HardRock(), opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Telemetry.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"traceEvents"`)) {
		t.Error("trace JSON missing traceEvents array")
	}
}

// stepLoopSeconds runs the fixture and returns the measured step-loop time
// (the Eq. 7 terms; setup and teardown excluded).
func stepLoopSeconds(q cvm.Querier, opt Options) float64 {
	res, err := Run(q, opt)
	if err != nil {
		panic(err)
	}
	tm := res.Timing
	return tm.Comp + tm.Comm + tm.Sync + tm.Output
}

// Telemetry-on must stay within 5% of telemetry-off at the strong-scaling
// subgrid (16^3 per rank), where per-step work is smallest and fixed
// per-probe cost hurts most. Wall-clock sensitive: skipped in short mode
// and under the race detector.
func TestTelemetryOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped in short mode")
	}
	if telemetry.RaceEnabled {
		t.Skip("timing-sensitive; skipped under the race detector")
	}
	q := cvm.Homogeneous(cvm.Material{Vp: 6000, Vs: 3464, Rho: 2700})
	mk := func(tel *telemetry.Options) Options {
		opt := baseOptions(mpi.NewCart(2, 1, 1))
		opt.Global = grid.Dims{NX: 32, NY: 16, NZ: 16} // 16^3 per rank
		opt.Steps = 60
		opt.Telemetry = tel
		return opt
	}
	// Warm up caches, pools and the scheduler once, then time on/off
	// pairs, alternating which one runs first so that drift and order
	// effects hit both, and gate the median of the per-pair on/off ratios:
	// one disturbed run moves a best-of or a mean, but not the median.
	stepLoopSeconds(q, mk(nil))
	const pairs = 63
	ratios, offs := make([]float64, pairs), make([]float64, pairs)
	for i := range ratios {
		var on, off float64
		if i%2 == 0 {
			off = stepLoopSeconds(q, mk(nil))
			on = stepLoopSeconds(q, mk(&telemetry.Options{TraceEvents: 1 << 15}))
		} else {
			on = stepLoopSeconds(q, mk(&telemetry.Options{TraceEvents: 1 << 15}))
			off = stepLoopSeconds(q, mk(nil))
		}
		ratios[i], offs[i] = on/off, off
	}
	slices.Sort(ratios)
	slices.Sort(offs)
	ratio, off := ratios[pairs/2], offs[pairs/2]
	t.Logf("step loop: median off %.4fs, median on/off %.4f over %d pairs (overhead %.2f%%)",
		off, ratio, pairs, 100*(ratio-1))
	// 0.5 ms of absolute slack absorbs scheduler jitter on loaded runners
	// without masking a real per-probe regression at this problem size:
	// on <= 1.05*off + 0.5ms, as a ratio at the median off time.
	if ratio > 1.05+500e-6/off {
		t.Errorf("telemetry overhead %.2f%% exceeds the 5%% budget (median off %.4fs, median on/off %.4f)",
			100*(ratio-1), off, ratio)
	}
}
