package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"time"

	"repro/internal/core/solver"
	"repro/internal/farm"
	"repro/internal/pfs"
	"repro/internal/telemetry"
)

const (
	// farmScenarios is the Latin-hypercube ensemble submitted at t=0.
	farmScenarios = 64
	// farmExtras are scenarios the benchmark never submits: the query
	// client asks for them first, so the server queues them itself.
	farmExtras = 4
	// farmTail is how long the query client keeps running after Wait,
	// when every answer can come from the store.
	farmTail = 300 * time.Millisecond
)

// farmWorkload is a seeded Latin-hypercube ensemble at farm.DefaultSpec()
// (60-step jobs, all inside the wavefront transient) on nproc-1 workers,
// with one closed-loop query client on one keep-alive loopback HTTP
// connection running during the ensemble and for a fixed tail after it.
type farmWorkload struct {
	seed    int64
	spec    farm.EnsembleSpec
	scs     []farm.Scenario
	extras  []farm.Scenario
	workers int
}

func newFarmWorkload(seed int64) *farmWorkload {
	return &farmWorkload{
		seed:    seed,
		spec:    farm.DefaultSpec(),
		scs:     farm.LatinHypercube(farmScenarios, seed, farm.DefaultRange()),
		extras:  farm.LatinHypercube(farmExtras, seed+1_000_003, farm.DefaultRange()),
		workers: max(runtime.NumCPU()-1, 1),
	}
}

// answer is one query outcome as the client saw it.
type answer struct {
	key      string
	isMap    bool
	degraded bool
	peak     float64
	mapResp  farm.MapResponse
	latMs    float64
	bad      bool // transport error, non-200 or undecodable body
}

func hazardQuery(sc farm.Scenario) string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	q := url.Values{"mw": {f(sc.Mw)}, "hx": {f(sc.HypoX)}, "hy": {f(sc.HypoY)}, "hz": {f(sc.HypoZ)}, "vs": {f(sc.VsScale)}}
	return "/hazard?" + q.Encode()
}

// query sends one request and decodes the answer.
func query(c *http.Client, base, path string, isMap bool, key string) answer {
	a := answer{key: key, isMap: isMap}
	t := time.Now()
	resp, err := c.Get(base + path)
	if err != nil {
		a.bad = true
		a.latMs = float64(time.Since(t).Nanoseconds()) / 1e6
		return a
	}
	defer resp.Body.Close()
	if isMap {
		var mr struct {
			farm.MapResponse
			Available *bool `json:"available"`
		}
		err = json.NewDecoder(resp.Body).Decode(&mr)
		a.degraded = mr.Available != nil
		a.mapResp = mr.MapResponse
	} else {
		var hr farm.HazardResponse
		err = json.NewDecoder(resp.Body).Decode(&hr)
		a.degraded, a.peak = hr.Degraded, hr.PeakPGV
		if hr.Key != key {
			err = fmt.Errorf("answer for key %s, asked %s", hr.Key, key)
		}
	}
	a.latMs = float64(time.Since(t).Nanoseconds()) / 1e6
	a.bad = err != nil || resp.StatusCode != http.StatusOK
	return a
}

func (w *farmWorkload) solverOptions() solver.Options { return w.spec.Options(w.scs[0]) }

func (w *farmWorkload) iterate(tr *tracer) (sample, error) {
	fail := sample{attempted: 1, failed: 1}
	root := tr.start("iteration", 0, -1)
	defer tr.end(root)
	var rec *telemetry.Recorder
	if tr != nil {
		rec = telemetry.NewRecorder(0, 1<<16)
	}

	t0 := time.Now()
	setupID := tr.start("farm.setup", root, -1)
	store := farm.NewStore(pfs.New(pfs.Jaguar()), nil)
	f := farm.New(farm.Config{Spec: w.spec, Workers: w.workers, Rec: rec}, store, farm.NewSurrogate(farm.DefaultRange()))
	defer f.Close()
	srv := farm.NewServer(f, farm.ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tr.end(setupID)
		return fail, err
	}
	hs := &http.Server{Handler: srv}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Shutdown(context.Background())
		<-served
	}()
	tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	defer tp.CloseIdleConnections()
	client := &http.Client{Transport: tp, Timeout: 30 * time.Second}
	base := "http://" + ln.Addr().String()
	// Set-up ends when the service answers on the client's connection.
	if resp, err := client.Get(base + "/status"); err != nil {
		tr.end(setupID)
		return fail, err
	} else {
		resp.Body.Close()
	}
	tr.end(setupID)
	setupS := time.Since(t0).Seconds()

	keys := map[string]farm.Scenario{}
	for _, sc := range append(append([]farm.Scenario(nil), w.scs...), w.extras...) {
		keys[sc.Key()] = sc
	}
	stop := make(chan struct{})
	answers := make(chan []answer, 1)
	go func() {
		rng := rand.New(rand.NewSource(w.seed))
		var out []answer
		for i := 0; ; i++ {
			select {
			case <-stop:
				answers <- out
				return
			default:
			}
			var sc farm.Scenario
			switch u := rng.Float64(); {
			case i < len(w.extras):
				sc = w.extras[i]
			case u < 0.25:
				sc = w.scs[rng.Intn(len(w.scs))]
				out = append(out, query(client, base, "/map?key="+sc.Key(), true, sc.Key()))
				continue
			case u < 0.40:
				sc = w.extras[rng.Intn(len(w.extras))]
			default:
				sc = w.scs[rng.Intn(len(w.scs))]
			}
			out = append(out, query(client, base, hazardQuery(sc), false, sc.Key()))
		}
	}()

	ensID := tr.start("farm.ensemble", root, -1)
	tSubmit := time.Now()
	submitNs := telemetry.Now()
	for _, sc := range w.scs {
		f.Submit(sc)
	}
	f.Wait()
	wall := time.Since(tSubmit).Seconds()
	tr.end(ensID)
	tailID := tr.start("farm.tail", root, -1)
	time.Sleep(farmTail)
	close(stop)
	got := <-answers
	tr.end(tailID)

	st := f.Stats()
	s := sample{setupS: setupS, wallS: wall, attempted: len(got) + farmScenarios + farmExtras}
	// Every farm job ends inside the wavefront transient, so the farm's
	// transient cost is the ensemble's worker-seconds per job cell-step,
	// queueing, storing and serving included.
	cells := float64(w.spec.Dims.Cells() * w.spec.Steps)
	s.transientNs = wall * float64(w.workers) * 1e9 / (float64(st.Completed) * cells)

	// Output checks: every non-degraded answer must match the stored
	// artifact, whose CRC must match its content; the store must audit
	// clean and every job must have completed.
	var lat []float64
	var degraded, wrong int
	getMs := map[string]float64{}
	stored := map[string]farm.Product{}
	for _, a := range got {
		lat = append(lat, a.latMs)
		if a.bad {
			s.failed++
			continue
		}
		if a.degraded {
			degraded++
			continue
		}
		p, ok := stored[a.key]
		if !ok {
			id := tr.start("store.get", root, -1)
			t := time.Now()
			prod, err := store.Get(a.key)
			getMs[a.key] = float64(time.Since(t).Nanoseconds()) / 1e6
			tr.end(id)
			sum, have := store.Checksum(a.key)
			if err != nil || !have || sum != farm.ProductChecksum(prod) {
				wrong++
				continue
			}
			p, stored[a.key] = prod, prod
		}
		if a.isMap {
			m := a.mapResp
			echo := farm.Product{Scenario: keys[a.key], NX: m.NX, NY: m.NY, Peak: m.Peak, PGVH: m.PGVH}
			if farm.ProductChecksum(echo) != farm.ProductChecksum(p) {
				wrong++
			}
		} else if a.peak != p.Peak {
			wrong++
		}
	}
	bad := store.VerifyAll()
	missing := farmScenarios + farmExtras - st.Completed
	s.failed += wrong + len(bad) + st.Failed + max(missing-st.Failed, 0)
	if s.failed > 0 {
		fmt.Printf("farm: %d failed operations (%d wrong answers, %d corrupt artifacts, %d failed jobs, %d missing)\n",
			s.failed, wrong, len(bad), st.Failed, missing)
	}
	p99 := 99.0
	if !supportsPercentile(len(lat), p99) {
		p99 = tailPercentile(len(lat))
		fmt.Printf("farm: %d queries support only p%g; reporting it as query_p99_ms\n", len(lat), p99)
	}
	s.extra = map[string]float64{
		"scenarios_per_hour": float64(st.Completed) / wall * 3600,
		"query_p50_ms":       percentile(lat, 50),
		"query_p99_ms":       percentile(lat, p99),
		"query_samples":      float64(len(lat)),
		"degraded_frac":      float64(degraded) / float64(max(len(lat), 1)),
	}
	if tr == nil {
		return s, nil
	}

	l := map[string]float64{}
	var attempts, queueWait, serve []float64
	var jobSec float64
	events, _ := rec.Events()
	for _, e := range events {
		switch e.Phase {
		case telemetry.Job:
			attempts = append(attempts, float64(e.Dur)/1e9)
			queueWait = append(queueWait, float64(e.Start-submitNs)/1e9)
			jobSec += float64(e.Dur) / 1e9
		case telemetry.Serve:
			serve = append(serve, float64(e.Dur)/1e6)
		}
	}
	tr.fold(ensID, telemetry.Job.String(), jobSec/float64(w.workers))
	l["farm.attempt_s_p50"] = percentile(attempts, 50)
	l["farm.attempt_s_p99"] = percentile(attempts, 99)
	l["farm.queue_wait_s_p50"] = percentile(queueWait, 50)
	l["farm.useful_frac"] = float64(st.Completed) / float64(max(st.Attempts, 1))
	l["server.serve_ms_p50"] = percentile(serve, 50)
	_, _, shed := srv.ServedCounts()
	l["server.sheds"] = float64(shed)
	var gets []float64
	for _, ms := range getMs {
		gets = append(gets, ms)
	}
	l["store.get_ms_p50"] = percentile(gets, 50)
	l["surrogate.predict_us"] = predictCost(f.Surrogate(), w.seed)
	l["telemetry.unattributed_frac"] = unattributedFrac(jobSec, wall*float64(w.workers))

	// Break one job down by layer: the first scenario's solve, run through
	// runSolve with the solver's telemetry on.
	sc0 := w.scs[0]
	jobID := tr.start("farm.job_breakdown", root, -1)
	sp := solveSpec{q: w.spec.Model(sc0), opt: w.spec.Options(sc0), split: 120, probeStep: 40}
	out, err := runSolve(sp, tr, jobID)
	tr.end(jobID)
	if err != nil {
		return s, err
	}
	jl, err := solverLayers(sp, out)
	for _, k := range []string{"fd.velocity_ns_per_cell", "fd.stress_ns_per_cell", "attenuation.ns_per_cell",
		"state.subnormal_frac_peak", "probe.stress_atten_ns_per_cell.transient"} {
		l[k] = jl[k]
	}
	s.layers = l
	return s, err
}

// predictCost is the mean time of one surrogate prediction, in µs, after
// a first call that absorbs the surrogate's lazy refit.
func predictCost(sur *farm.Surrogate, seed int64) float64 {
	scs := farm.LatinHypercube(256, seed+7, farm.DefaultRange())
	sur.Predict(scs[0])
	t := time.Now()
	for _, sc := range scs {
		sur.Predict(sc)
	}
	return float64(time.Since(t).Nanoseconds()) / 1e3 / float64(len(scs))
}
