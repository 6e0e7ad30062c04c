package main

import (
	"fmt"
	"time"

	"repro/awp"
	"repro/internal/agg"
	"repro/internal/core/fd"
	"repro/internal/core/solver"
	"repro/internal/core/source"
	"repro/internal/cvm"
	"repro/internal/decomp"
	"repro/internal/grid"
	"repro/internal/meshgen"
	"repro/internal/meshpart"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/srcgen"
	"repro/internal/telemetry"
	"repro/internal/workflow"
)

// variants is the number of seeded input variants of each solver
// workload. The seed picks one; each has a committed reference output.
const variants = 4

// sourceShift moves the point source (or the rupture hypocenter) off its
// default position by a few cells per variant; variant 0 is the default.
var sourceShift = [variants][2]int{{0, 0}, {2, -1}, {-1, 2}, {-2, -2}}

// awpScenario is awp-run's configuration at the given size, boundary and
// rank count, with the variant's source shift. At 48x48x32, sponge and
// one rank it is exactly what awp-run runs without flags.
func awpScenario(dims awp.Dims, abc solver.ABCKind, ranks, variant int) (awp.Model, awp.Scenario) {
	const h = 200.0
	si := dims.NX/2 + sourceShift[variant][0]
	sj := dims.NY/2 + sourceShift[variant][1]
	sk := dims.NZ / 2
	q := awp.SoCalModel(float64(dims.NX)*h, float64(dims.NY)*h, float64(dims.NZ)*h, 500)
	return q, awp.Scenario{
		Dims: dims, H: h, Steps: 300, Ranks: ranks, Threads: 1,
		Comm: awp.AsyncReduced, ABC: abc,
		FreeSurface: true, Attenuation: true,
		Sources:   awp.PointMomentSource(si, sj, sk, 1e16, 0.3, 0.08),
		Receivers: [][3]int{{si, sj, 0}, {dims.NX - 10, sj, 0}},
		TrackPGV:  true,
	}
}

// solverOptions maps an awp.Scenario onto the solver.Options awp.Run
// builds for it (default blocked kernels, no temporal tiling, LTS off,
// awp's rank topology and 8-cell sponge). TestRunSolveMatchesAwpRun checks that
// the mapping reproduces awp.Run bit for bit.
func solverOptions(sc awp.Scenario) solver.Options {
	topo := mpi.NewCart(1, 1, 1)
	if sc.Ranks > 1 {
		// awp.Run's topology search picks an x split for two ranks on
		// the square grids used here.
		topo = mpi.NewCart(sc.Ranks, 1, 1)
	}
	return solver.Options{
		Global: sc.Dims, H: sc.H, Steps: sc.Steps, Topo: topo,
		Comm: sc.Comm, Threads: sc.Threads,
		Variant: fd.Blocked, Blocking: fd.DefaultBlocking, TemporalDepth: 1,
		ABC: sc.ABC, SpongeWidth: 8,
		FreeSurface: sc.FreeSurface, Attenuation: sc.Attenuation,
		Sources: sc.Sources, Receivers: sc.Receivers, TrackPGV: sc.TrackPGV,
		LTS: solver.LTSOptions{WorkBalance: true},
	}
}

// awpSpec is the awp-default workload: 48x48x32, sponge, one rank. Its
// transient is steps 0-59: while the wavefront's precursor keeps up to
// 5% of the wavefield subnormal, blocks cost 2-5x the steady state.
func awpSpec(variant int) solveSpec {
	q, sc := awpScenario(awp.Dims{NX: 48, NY: 48, NZ: 32}, awp.SpongeABC, 1, variant)
	return solveSpec{q: q, opt: solverOptions(sc), split: 60, probeStep: 30}
}

// m8Spec is the m8-mpml workload: the M8 production boundary (M-PML)
// with attenuation and free surface on two ranks, 64x64x32. On the larger
// grid the transient lasts longer: steps 0-99.
func m8Spec(variant int) solveSpec {
	q, sc := awpScenario(awp.Dims{NX: 64, NY: 64, NZ: 32}, awp.MPMLABC, 2, variant)
	return solveSpec{q: q, opt: solverOptions(sc), split: 100, probeStep: 30}
}

// solverWorkload runs awp-default or m8-mpml.
type solverWorkload struct {
	name string
	spec solveSpec
	ref  refVariant
}

func newSolverWorkload(name string, seed int64) (workload, error) {
	v := seedVariant(seed, variants)
	ref, err := loadReference(name, v)
	if err != nil {
		return nil, err
	}
	switch name {
	case "awp-default":
		return &solverWorkload{name: name, spec: awpSpec(v), ref: ref}, nil
	case "m8-mpml":
		return &solverWorkload{name: name, spec: m8Spec(v), ref: ref}, nil
	}
	return &pipelineWorkload{variant: v, ref: ref}, nil
}

func (w *solverWorkload) solverOptions() solver.Options { return w.spec.opt }

func (w *solverWorkload) iterate(tr *tracer) (sample, error) {
	root := tr.start("iteration", 0, -1)
	out, err := runSolve(w.spec, tr, root)
	tr.end(root)
	if err != nil {
		return sample{attempted: 1, failed: 1}, err
	}
	s := sample{setupS: out.setupS, wallS: out.wallS, attempted: 1}
	s.transientNs, s.steadyNs = splitCost(out.blockSec, blockSteps, w.spec.opt.Steps, w.spec.split, w.spec.opt.Global.Cells())
	seisErr, pgvErr, ok := w.ref.check(out.res, "")
	if !ok {
		s.failed = 1
		fmt.Printf("%s: output differs from the reference (seis rel L2 %.3g, PGV rel err %.3g)\n", w.name, seisErr, pgvErr)
	}
	if tr == nil {
		return s, nil
	}
	s.layers, err = solverLayers(w.spec, out)
	s.layers["seis_rel_l2"] = seisErr
	s.layers["pgv_rel_err"] = pgvErr
	return s, err
}

// solverLayers derives the per-layer figures of one traced solve. Phase
// times are summed over ranks, so per-cell figures are CPU time per
// global cell-step and per-step figures are means per rank.
func solverLayers(sp solveSpec, out solveOut) (map[string]float64, error) {
	opt := sp.opt
	steps := float64(opt.Steps)
	cellSteps := float64(opt.Global.Cells()) * steps
	ranks := float64(opt.Topo.Size())
	ph := func(ps ...telemetry.Phase) float64 {
		var sum float64
		for _, p := range ps {
			sum += out.phaseSec[p]
		}
		return sum
	}
	var attributed float64
	for _, p := range stepPhases {
		attributed += out.phaseSec[p]
	}
	l := map[string]float64{
		"fd.velocity_ns_per_cell":     ph(telemetry.Velocity) * 1e9 / cellSteps,
		"fd.stress_ns_per_cell":       ph(telemetry.Stress) * 1e9 / cellSteps,
		"attenuation.ns_per_cell":     ph(telemetry.Attenuation) * 1e9 / cellSteps,
		"state.subnormal_frac_peak":   out.subnormalPeak,
		"boundary.step_share":         ph(telemetry.Boundary) / out.stepSec,
		"solver.halo_s_per_step":      ph(telemetry.Pack, telemetry.Send, telemetry.Recv, telemetry.Unpack) / (steps * ranks),
		"mpi.recv_wait_s_per_step":    ph(telemetry.Recv) / (steps * ranks),
		"mpi.msgs_per_step":           float64(out.sentMsgs) / steps,
		"mpi.bytes_per_step":          float64(out.sentFloats) * 4 / steps,
		"solver.new_stepper_s":        out.newStepperS,
		"mpi.collective_s":            ph(telemetry.Collective) / ranks,
		"solver.finish_s":             out.finishS,
		"solver.output_s_per_step":    ph(telemetry.Output) / (steps * ranks),
		"agg.flush_s":                 ph(telemetry.Agg) / ranks,
		"telemetry.unattributed_frac": unattributedFrac(attributed, out.stepSec),
	}
	if shell := absorbingShellCells(opt.Global, boundaryWidth(opt), opt.FreeSurface); shell > 0 {
		l["boundary.ns_per_boundary_cell"] = ph(telemetry.Boundary) * 1e9 / (float64(shell) * steps)
	}
	for _, p := range []struct {
		key  string
		snap *snapshot
	}{{"probe.stress_atten_ns_per_cell.transient", out.transientSnap}, {"probe.stress_atten_ns_per_cell.steady", out.steadySnap}} {
		if p.snap == nil {
			continue
		}
		ns, err := probeStressAtten(sp, p.snap, 5)
		if err != nil {
			return l, err
		}
		l[p.key] = ns
	}
	return l, nil
}

// pipelineWorkload is the cmd/pipeline chain called through its public
// functions, sized so that mesh, source and output I/O dominate:
// streamed meshgen -> stream partition + on-demand read -> Haskell
// source generation, write and temporal partitioning -> 2-rank sponge
// solve with aggregated surface output -> archive transfer -> ingest ->
// replica verification.
type pipelineWorkload struct {
	variant int
	ref     refVariant
}

// pipelineDims is the pipeline's mesh and solver grid; 400 m spacing as
// in cmd/pipeline.
var pipelineDims = grid.Dims{NX: 128, NY: 96, NZ: 32}

const (
	pipelineH     = 400.0
	pipelineSteps = 10
)

// pipelineSource is the variant's Haskell rupture on the y mid-plane.
func pipelineSource(variant int) source.HaskellSpec {
	g := pipelineDims
	return source.HaskellSpec{
		GJ: g.NY / 2, I0: 8, I1: g.NX - 8, K0: 2, K1: 14,
		HypoI: g.NX - 16 + sourceShift[variant][0], HypoK: 8 + sourceShift[variant][1],
		H: pipelineH, Mw: 6.5, Vr: 2800, RiseTime: 1.0,
		Mu: 3.3e10, Dt: 0.02, NT: 500, TaperCells: 2,
	}
}

// pipelineSolve is the chain's solve stage: two ranks, sponge, the
// surface velocity streamed through the aggregated writer every step.
func pipelineSolve(q cvm.Querier, srcs []source.SampledSource, scratch *pfs.FS, aggCfg agg.Config) solveSpec {
	return solveSpec{q: q, split: 120, probeStep: 10, opt: solver.Options{
		Global: pipelineDims, H: pipelineH, Steps: pipelineSteps, Topo: mpi.NewCart(2, 1, 1),
		Comm: solver.AsyncReduced, ABC: solver.SpongeABC, SpongeWidth: 6,
		FreeSurface: true, Attenuation: true,
		Sources: srcs, TrackPGV: true,
		Surface: &solver.SurfaceOptions{
			FS: scratch, Path: "out/surface.bin", Every: 1, FlushEvery: 5, Agg: aggCfg,
		},
	}}
}

// pipelineModel is the chain's velocity model.
func pipelineModel() cvm.Querier {
	g := pipelineDims
	return cvm.SoCal(float64(g.NX-1)*pipelineH, float64(g.NY-1)*pipelineH, float64(g.NZ-1)*pipelineH, 500)
}

func (w *pipelineWorkload) solverOptions() solver.Options {
	return pipelineSolve(nil, nil, nil, agg.Config{}).opt
}

func (w *pipelineWorkload) iterate(tr *tracer) (sample, error) {
	fail := sample{attempted: 1, failed: 1}
	root := tr.start("iteration", 0, -1)
	stage := func(name string, f func() error) (float64, error) {
		id := tr.start(name, root, -1)
		t := time.Now()
		err := f()
		tr.end(id)
		return time.Since(t).Seconds(), err
	}

	t0 := time.Now()
	aggCfg := agg.Config{Aggregators: 2, OpenThrottle: agg.DefaultOpenThrottle}
	g := pipelineDims
	scratch := pfs.New(pfs.Jaguar())
	scratch.SetStripe("in/", 0, 1<<20)
	scratch.SetStripe("out/", 0, 4<<20)
	q := pipelineModel()
	dc, err := decomp.New(g, mpi.NewCart(2, 1, 1))
	if err != nil {
		return fail, err
	}
	initS := time.Since(t0).Seconds()
	l := map[string]float64{}

	var mst meshgen.StreamStats
	l["meshgen.generate_s"], err = stage("meshgen.generate", func() (e error) {
		mst, e = meshgen.GenerateStreamed(scratch, q, meshgen.StreamSpec{
			Spec:        meshgen.Spec{Path: "in/mesh.bin", Global: g, H: pipelineH, Cores: 4},
			ChunkPlanes: 2, Agg: aggCfg,
		})
		return e
	})
	if err != nil {
		return fail, err
	}
	l["meshgen.virtual_write_s"] = mst.WritePhase.Elapsed
	if l["meshpart.partition_s"], err = stage("meshpart.partition", func() error {
		_, _, e := meshpart.StreamPrePartition(scratch, "in/mesh.bin", "parts", g, dc, aggCfg.OpenThrottle)
		return e
	}); err != nil {
		return fail, err
	}
	if l["meshpart.ondemand_read_s"], err = stage("meshpart.ondemand_read", func() error {
		_, _, e := meshpart.OnDemand(scratch, "in/mesh.bin", g, dc, 2, 1)
		return e
	}); err != nil {
		return fail, err
	}
	var srcs []source.SampledSource
	if l["srcgen.generate_s"], err = stage("srcgen.generate", func() (e error) {
		if srcs, e = pipelineSource(w.variant).Generate(); e != nil {
			return e
		}
		srcgen.WriteSourceFile(scratch, "in/source.bin", srcs)
		_, e = srcgen.PartitionTemporal(srcs, 6)
		return e
	}); err != nil {
		return fail, err
	}

	sp := pipelineSolve(q, srcs, scratch, aggCfg)
	solveID := tr.start("solver.run", root, -1)
	out, err := runSolve(sp, tr, solveID)
	tr.end(solveID)
	if err != nil {
		return fail, err
	}

	src := workflow.Site{Name: "scratch", FS: scratch}
	archive := workflow.Site{Name: "archive", FS: pfs.New(pfs.Jaguar())}
	paths := []string{"out/surface.bin", "in/mesh.bin", "in/source.bin"}
	// A fixed failure-injection seed: the retransfers are part of the
	// workload, identical for every benchmark seed.
	xfer := workflow.NewTransferer(workflow.Link{BandwidthPerStream: 25e6, MaxStreams: 16, FailureRate: 0.05}, 42)
	var tst workflow.TransferStats
	if l["workflow.transfer_s"], err = stage("workflow.transfer", func() (e error) {
		tst, e = xfer.Transfer(src, archive, paths, 8)
		return e
	}); err != nil {
		return fail, err
	}
	reg := workflow.NewRegistry()
	if l["workflow.ingest_s"], err = stage("workflow.ingest", func() error {
		_, e := reg.Ingest(archive, paths, 8, 17.7e6)
		return e
	}); err != nil {
		return fail, err
	}
	_, verifyErr := stage("workflow.verify", func() error {
		for _, p := range paths {
			if e := reg.VerifyReplica(archive, p); e != nil {
				return e
			}
		}
		return nil
	})
	total := time.Since(t0).Seconds()
	tr.end(root)

	s := sample{attempted: 1, setupS: initS + out.setupS}
	s.wallS = total - s.setupS
	s.transientNs, s.steadyNs = splitCost(out.blockSec, blockSteps, pipelineSteps, sp.split, g.Cells())
	surfaceSHA, shaErr := fileSHA256(scratch, "out/surface.bin")
	seisErr, pgvErr, ok := w.ref.check(out.res, surfaceSHA)
	checks := []struct {
		what string
		err  error
	}{{"replica verification", verifyErr}, {"surface stripe checksums", out.stripeErr}, {"surface read-back", shaErr}}
	for _, c := range checks {
		if c.err != nil {
			ok = false
			fmt.Printf("pipeline: %s failed: %v\n", c.what, c.err)
		}
	}
	if !tst.Verified {
		ok = false
		fmt.Println("pipeline: transfer not verified")
	}
	if !ok {
		s.failed = 1
		fmt.Printf("pipeline: output check failed (seis rel L2 %.3g, PGV rel err %.3g)\n", seisErr, pgvErr)
	}
	if tr == nil {
		return s, nil
	}
	sl, err := solverLayers(sp, out)
	for k, v := range sl {
		l[k] = v
	}
	l["seis_rel_l2"] = seisErr
	l["pgv_rel_err"] = pgvErr
	l["workflow.retries"] = float64(tst.Retries)
	if out.surface != nil {
		l["agg.flushes"] = float64(out.surface.Flushes)
		l["agg.opens"] = float64(out.surface.Opens)
		l["agg.virtual_io_s"] = out.surface.Phase.Elapsed
	}
	s.layers = l
	return s, err
}
