// Command perfbench is the repository's benchmark. One invocation runs one
// named workload for a fixed time, checks the program's outputs, and
// prints one JSON object as the last line of standard output: the
// end-to-end metrics, or with --trace 1 the per-layer breakdown.
//
// Run it from the repository root; run.sh builds it from source first:
//
//	bash perfbench/run.sh --workload awp-default --seed 1 --seconds 20 --trace 0
//
// The workloads are the four configurations people run (BENCHMARK.json
// says why each was chosen): awp-default, m8-mpml, pipeline and farm.
// The seed generates the workload's inputs; the program only sees them.
// Every layer is timed from outside, around calls into its package's
// public functions; the program's own phase report is read only where a
// public option exposes it (solver.Options.Telemetry, farm.Config.Rec),
// and only in traced runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/core/solver"
)

// sample is what one iteration of a workload measured.
type sample struct {
	setupS, wallS float64
	// transientNs is the mean cost of a cell-step before the workload's
	// split step; steadyNs after it (0 when no step lies after it).
	transientNs, steadyNs float64
	heapPeakMB            float64
	attempted, failed     int
	// extra holds figures measured on every iteration that are reported
	// per layer (from the untraced iterations of a traced run).
	extra map[string]float64
	// layers holds the per-layer figures of a traced iteration.
	layers map[string]float64
}

// workload is one benchmark configuration.
type workload interface {
	// iterate runs the workload once; tr is nil on an untraced iteration.
	iterate(tr *tracer) (sample, error)
	// solverOptions is the solve the workload runs (one farm job), for
	// the computed kernel model and footprint printed with the results.
	solverOptions() solver.Options
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd are the metrics of an untraced run, every one reported on
// every workload.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"transient_ns_per_cell_step", "ns"},
	{"peak_heap_mb", "MB"},
}

// perLayer are the metrics of a traced run with their units. A layer a
// workload does not use reports 0.
var perLayer = []struct{ name, unit string }{
	{"fd.velocity_ns_per_cell", "ns"},
	{"fd.stress_ns_per_cell", "ns"},
	{"attenuation.ns_per_cell", "ns"},
	{"state.subnormal_frac_peak", "ratio"},
	{"probe.stress_atten_ns_per_cell.transient", "ns"},
	{"probe.stress_atten_ns_per_cell.steady", "ns"},
	{"boundary.ns_per_boundary_cell", "ns"},
	{"boundary.step_share", "ratio"},
	{"steady_ns_per_cell_step", "ns"},
	{"solver.halo_s_per_step", "s"},
	{"mpi.recv_wait_s_per_step", "s"},
	{"mpi.msgs_per_step", "count"},
	{"mpi.bytes_per_step", "bytes"},
	{"solver.new_stepper_s", "s"},
	{"mpi.collective_s", "s"},
	{"solver.finish_s", "s"},
	{"solver.output_s_per_step", "s"},
	{"meshgen.generate_s", "s"},
	{"meshgen.virtual_write_s", "sim_s"},
	{"meshpart.partition_s", "s"},
	{"meshpart.ondemand_read_s", "s"},
	{"srcgen.generate_s", "s"},
	{"agg.flush_s", "s"},
	{"agg.flushes", "count"},
	{"agg.opens", "count"},
	{"agg.virtual_io_s", "sim_s"},
	{"workflow.transfer_s", "s"},
	{"workflow.retries", "count"},
	{"workflow.ingest_s", "s"},
	{"scenarios_per_hour", "1/h"},
	{"farm.attempt_s_p50", "s"},
	{"farm.attempt_s_p99", "s"},
	{"farm.queue_wait_s_p50", "s"},
	{"farm.useful_frac", "ratio"},
	{"query_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"query_samples", "count"},
	{"degraded_frac", "ratio"},
	{"server.serve_ms_p50", "ms"},
	{"server.sheds", "count"},
	{"store.get_ms_p50", "ms"},
	{"surrogate.predict_us", "us"},
	{"seis_rel_l2", "ratio"},
	{"pgv_rel_err", "ratio"},
	{"telemetry.unattributed_frac", "ratio"},
	{"trace_overhead_frac", "ratio"},
}

func main() {
	name := flag.String("workload", "", "workload: awp-default, m8-mpml, pipeline or farm")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "measurement time; iterations start until it has passed")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	writeRefs := flag.Bool("write-refs", false, "regenerate refs/*.json with awp.Run/solver.Run and exit (run from the perfbench directory)")
	flag.Parse()

	if *writeRefs {
		if err := writeReferences(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	wl, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := measure(wl, *name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "awp-default", "m8-mpml", "pipeline":
		return newSolverWorkload(name, seed)
	case "farm":
		return newFarmWorkload(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want awp-default, m8-mpml, pipeline or farm)", name)
}

// measure starts iterations until the measurement time has passed, then
// reports medians over the iterations. An untraced run reports the
// end-to-end metrics. A traced run alternates untraced and traced
// iterations: the traced ones give the per-layer figures, and the pair
// gives the tracing overhead.
func measure(wl workload, name string, seed int64, dur time.Duration, traced bool) (result, error) {
	var plain, withTrace []sample
	var spans []span
	res := result{}
	printModel(wl.solverOptions())
	// A traced run needs one iteration of each kind.
	minIter := 1
	if traced {
		minIter = 2
	}
	start := time.Now()
	for i := 0; i < minIter || time.Since(start) < dur; i++ {
		var tr *tracer
		if traced && i%2 == 1 {
			tr = newTracer()
		}
		runtime.GC()
		hs := startHeapSampler()
		s, err := wl.iterate(tr)
		s.heapPeakMB = hs.stop()
		res.Attempted += s.attempted
		res.Failed += s.failed
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s iteration %d: %v\n", name, i, err)
			continue
		}
		fmt.Printf("iteration %d (traced %v): setup %.4fs wall %.4fs transient %.1f ns/cell-step, %d/%d failed\n",
			i, tr != nil, s.setupS, s.wallS, s.transientNs, s.failed, s.attempted)
		if tr != nil {
			withTrace = append(withTrace, s)
			spans = tr.snapshot()
		} else {
			plain = append(plain, s)
		}
	}
	res.Correct = res.Failed == 0
	if res.Attempted == 0 {
		res.Attempted = 1
	}
	if len(plain) == 0 || (traced && len(withTrace) == 0) {
		return res, fmt.Errorf("%s: every iteration failed", name)
	}
	pick := func(ss []sample, f func(sample) float64) float64 {
		xs := make([]float64, len(ss))
		for i, s := range ss {
			xs[i] = f(s)
		}
		return median(xs)
	}
	res.Metrics = map[string]metric{}
	if !traced {
		vals := map[string]float64{
			"setup_s":                    pick(plain, func(s sample) float64 { return s.setupS }),
			"wall_s":                     pick(plain, func(s sample) float64 { return s.wallS }),
			"transient_ns_per_cell_step": pick(plain, func(s sample) float64 { return s.transientNs }),
			"peak_heap_mb":               pick(plain, func(s sample) float64 { return s.heapPeakMB }),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{vals[m.name], m.unit}
		}
		printSummary(name, seed, len(plain), res.Metrics)
		return res, nil
	}
	vals := medians(withTrace, func(s sample) map[string]float64 { return s.layers })
	for k, v := range medians(plain, func(s sample) map[string]float64 { return s.extra }) {
		vals[k] = v
	}
	vals["steady_ns_per_cell_step"] = pick(plain, func(s sample) float64 { return s.steadyNs })
	plainWall := pick(plain, func(s sample) float64 { return s.wallS })
	vals["trace_overhead_frac"] = pick(withTrace, func(s sample) float64 { return s.wallS })/plainWall - 1
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{vals[m.name], m.unit}
	}
	path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", name, seed))
	if err := writeTrace(path, spans, vals); err != nil {
		return res, err
	}
	printSummary(name, seed, len(withTrace), res.Metrics)
	fmt.Printf("trace of the last traced iteration: %s\n", path)
	return res, nil
}

// medians returns, for each key of the samples' maps, the median of its
// values over the samples.
func medians(ss []sample, get func(sample) map[string]float64) map[string]float64 {
	byKey := map[string][]float64{}
	for _, s := range ss {
		for k, v := range get(s) {
			byKey[k] = append(byKey[k], v)
		}
	}
	out := make(map[string]float64, len(byKey))
	for k, xs := range byKey {
		out[k] = median(xs)
	}
	return out
}

// printSummary prints the metrics as a table ahead of the JSON line.
func printSummary(name string, seed int64, n int, ms map[string]metric) {
	keys := make([]string, 0, len(ms))
	for k := range ms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("%s seed %d: medians over %d iterations\n", name, seed, n)
	for _, k := range keys {
		fmt.Printf("  %-44s %14.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
}

// heapSampler records the peak of live heap objects while it runs.
type heapSampler struct {
	stopc chan struct{}
	done  chan float64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan float64)}
	go func() {
		s := []metrics.Sample{{Name: heapMetric}}
		var peak uint64
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-h.stopc:
				h.done <- float64(peak) / 1e6
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in MB.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	return <-h.done
}

// seedVariant maps a seed onto one of n committed input variants.
func seedVariant(seed int64, n int) int {
	return int(((seed % int64(n)) + int64(n)) % int64(n))
}
