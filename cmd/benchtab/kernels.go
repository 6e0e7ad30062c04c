package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/core/fd"
	"repro/internal/core/solver"
	"repro/internal/core/source"
	"repro/internal/cvm"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/telemetry"
	"repro/internal/tuner"
)

// kernelVariantRun is one telemetry-instrumented run of one kernel variant.
type kernelVariantRun struct {
	Variant       string  `json:"variant"`
	StressSecStep float64 `json:"stress_sec_per_step"` // Stress + Attenuation spans
	VelSecStep    float64 `json:"velocity_sec_per_step"`
	StepSec       float64 `json:"step_sec"`
	Checksum      string  `json:"checksum"` // FNV-64a over seismogram + PGV bits
}

// kernelGridRun pairs the two-pass reference against the fused sweep on one
// grid and reports the measured stress-phase win. The two-pass row runs the
// Recip kernel, the one remaining two-pass path: whole-array stencil with
// its own reciprocal-sum coefficients, then the separate attenuation pass.
// It is an implementation independent of the production row-window sweep,
// so equal checksums are a real bit-identity check; its stress-phase time
// also carries Recip's per-point harmonic-mean division.
type kernelGridRun struct {
	Grid          string           `json:"grid"`
	Steps         int              `json:"steps"`
	TwoPass       kernelVariantRun `json:"two_pass"` // Recip + Apply
	Fused         kernelVariantRun `json:"fused"`
	BitIdentical  bool             `json:"bit_identical"`
	StressSpeedup float64          `json:"stress_phase_speedup"` // two-pass / fused
}

// kernelBandwidthModel is the analytic per-cell traffic accounting behind
// the fused win: float32 counts for the stress phase with attenuation on.
// Two-pass: elastic pass (3 velocity reads + 6 stress read-modify-writes +
// 5 precomputed material reads = 27 floats) then attenuation pass (3
// velocity reads + 6 stress RMW + 6 memory-variable RMW + 2 modulus-defect
// reads = 29 floats). Fused: one pass touching each of those streams once
// (3 + 12 + 5 + 12 + 2 = 34 floats). Stencil-neighbor reuse lands in cache
// on both paths, so the streamed-bytes comparison is like for like.
type kernelBandwidthModel struct {
	TwoPassBytesPerCell int    `json:"two_pass_bytes_per_cell"`
	FusedBytesPerCell   int    `json:"fused_bytes_per_cell"`
	Note                string `json:"note"`
}

// kernelAutotuneReport records one real autotuner sweep: every candidate's
// measured cost and the cached winner.
type kernelAutotuneReport struct {
	Dims      string               `json:"dims"`
	Threads   int                  `json:"threads"`
	Winner    string               `json:"winner"`
	JBlock    int                  `json:"jblock"`
	KBlock    int                  `json:"kblock"`
	NsPerCell float64              `json:"ns_per_cell"`
	Samples   []tuner.KernelSample `json:"samples"`
}

type kernelReport struct {
	GeneratedBy string               `json:"generated_by"`
	GOOS        string               `json:"goos"`
	GOARCH      string               `json:"goarch"`
	GOMAXPROCS  int                  `json:"gomaxprocs"`
	NumCPU      int                  `json:"num_cpu"`
	Warning     string               `json:"warning,omitempty"`
	Bandwidth   kernelBandwidthModel `json:"bandwidth_model"`
	Grids       []kernelGridRun      `json:"grids"`
	Autotune    kernelAutotuneReport `json:"autotune"`
}

// kernelsRun executes one serial telemetry-instrumented run with the given
// kernel variant; the scenario exercises the full fused path (attenuation,
// sponge, free surface, PGV fold).
func kernelsRun(g grid.Dims, variant fd.Variant, steps int) *solver.Result {
	q := cvm.SoCal(float64(g.NX)*100, float64(g.NY)*100, float64(g.NZ)*100, 500)
	src := source.PointSource{
		GI: g.NX / 2, GJ: g.NY / 2, GK: g.NZ / 2, M0: 1e15,
		Tensor: source.Explosion, STF: source.GaussianPulse(0.06, 0.02),
	}
	res, err := solver.Run(q, solver.Options{
		Global: g, H: 100, Steps: steps, Topo: mpi.NewCart(1, 1, 1),
		Comm: solver.AsyncReduced, Threads: 1,
		Variant: variant, Blocking: fd.DefaultBlocking,
		ABC: solver.SpongeABC, SpongeWidth: 4,
		FreeSurface: true, Attenuation: true,
		Sources:   []source.SampledSource{src.Sample(0.002, 200)},
		Receivers: [][3]int{{g.NX / 2, g.NY / 2, 0}, {2, 2, 0}},
		TrackPGV:  true,
		Telemetry: &telemetry.Options{},
	})
	if err != nil {
		panic(err)
	}
	return res
}

// kernelChecksum hashes the exact bits of every observable a run produces:
// seismograms and the four PGV maps. Equal checksums mean bit-identical
// output.
func kernelChecksum(res *solver.Result) string {
	h := fnv.New64a()
	var buf [8]byte
	put32 := func(v float32) {
		b := math.Float32bits(v)
		buf[0], buf[1], buf[2], buf[3] = byte(b), byte(b>>8), byte(b>>16), byte(b>>24)
		h.Write(buf[:4])
	}
	put64 := func(v float64) {
		b := math.Float64bits(v)
		for i := range buf {
			buf[i] = byte(b >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, s := range res.Seismograms {
		for _, smp := range s {
			put32(smp[0])
			put32(smp[1])
			put32(smp[2])
		}
	}
	for _, m := range [][]float64{res.PGVH, res.PGVX, res.PGVY, res.PGVZ} {
		for _, v := range m {
			put64(v)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func kernelVariantRow(g grid.Dims, v fd.Variant, steps int) kernelVariantRun {
	res := kernelsRun(g, v, steps)
	rep := res.Telemetry
	return kernelVariantRun{
		Variant:       v.String(),
		StressSecStep: rep.MeanStepSec(telemetry.Stress, telemetry.Attenuation),
		VelSecStep:    rep.MeanStepSec(telemetry.Velocity),
		StepSec:       rep.MeanStepSec(telemetry.Velocity, telemetry.Stress, telemetry.Attenuation, telemetry.Boundary, telemetry.Output),
		Checksum:      kernelChecksum(res),
	}
}

// kernels benchmarks the fused-sweep kernel engine against the two-pass
// reference (Recip elastic stress + coarse-grained attenuation as a
// separate pass): per-grid stress-phase seconds from telemetry, exact
// output checksums proving bit identity, the analytic bytes-per-cell model
// the win comes from, and one real autotuner sweep. Writes BENCH_4.json
// (or outPath).
func kernels(outPath string, short bool) {
	header("Kernels: fused sweep vs two-pass stress+attenuation")
	rep := kernelReport{
		GeneratedBy: "cmd/benchtab -exp kernels",
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Bandwidth: kernelBandwidthModel{
			TwoPassBytesPerCell: 4 * (27 + 29),
			FusedBytesPerCell:   4 * 34,
			Note: "stress-phase float32 streams per cell with attenuation on; " +
				"fused touches each stress/memory-variable stream once instead of twice",
		},
	}
	fmt.Printf("GOMAXPROCS=%d NumCPU=%d\n", rep.GOMAXPROCS, rep.NumCPU)
	if rep.GOMAXPROCS == 1 {
		rep.Warning = "GOMAXPROCS=1: timings measure serialized goroutine execution, " +
			"not hardware parallelism; the stress-phase comparison is still serial-vs-serial and fair"
		fmt.Printf("WARNING: %s\n", rep.Warning)
	}

	grids := []grid.Dims{{NX: 32, NY: 32, NZ: 24}, {NX: 48, NY: 48, NZ: 32}, {NX: 64, NY: 64, NZ: 40}}
	steps := 100
	if short {
		grids = []grid.Dims{{NX: 24, NY: 24, NZ: 16}}
		steps = 40
	}

	fmt.Printf("\n%-12s %14s %14s %10s %14s\n", "grid", "two-pass_s/st", "fused_s/st", "speedup", "bit-identical")
	for _, g := range grids {
		two := kernelVariantRow(g, fd.Recip, steps)
		fus := kernelVariantRow(g, fd.Fused, steps)
		run := kernelGridRun{
			Grid:         fmt.Sprintf("%dx%dx%d", g.NX, g.NY, g.NZ),
			Steps:        steps,
			TwoPass:      two,
			Fused:        fus,
			BitIdentical: two.Checksum == fus.Checksum,
		}
		if fus.StressSecStep > 0 {
			run.StressSpeedup = two.StressSecStep / fus.StressSecStep
		}
		rep.Grids = append(rep.Grids, run)
		fmt.Printf("%-12s %14.6f %14.6f %9.2fx %14v\n",
			run.Grid, two.StressSecStep, fus.StressSecStep, run.StressSpeedup, run.BitIdentical)
		if !run.BitIdentical {
			fmt.Fprintf(os.Stderr, "benchtab: kernels: fused output diverged from two-pass on %s\n", run.Grid)
			os.Exit(1)
		}
	}

	// One real autotuner sweep, against a throwaway profile so the report
	// always shows fresh measurements.
	tmp, err := os.MkdirTemp("", "benchtab-kernels-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtab: kernels: %v\n", err)
		os.Exit(1)
	}
	defer os.RemoveAll(tmp)
	tuneDims := grids[len(grids)-1]
	choice, samples, err := tuner.AutotuneKernels(tuner.AutotuneOptions{
		Dims: tuneDims, Threads: 1, Attenuation: true,
		CachePath: filepath.Join(tmp, "profile.json"),
		Quick:     short,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtab: kernels: autotune: %v\n", err)
		os.Exit(1)
	}
	rep.Autotune = kernelAutotuneReport{
		Dims:    fmt.Sprintf("%dx%dx%d", tuneDims.NX, tuneDims.NY, tuneDims.NZ),
		Threads: 1,
		Winner:  choice.Variant.String(),
		JBlock:  choice.Blocking.JBlock, KBlock: choice.Blocking.KBlock,
		NsPerCell: choice.NsPerCell,
		Samples:   samples,
	}
	fmt.Printf("\nautotune %s: winner %s {J:%d K:%d} at %.2f ns/cell (%d candidates)\n",
		rep.Autotune.Dims, rep.Autotune.Winner, rep.Autotune.JBlock, rep.Autotune.KBlock,
		rep.Autotune.NsPerCell, len(samples))

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtab: kernels: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchtab: kernels: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("report written to %s\n", outPath)
}
