package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core/attenuation"
	"repro/internal/core/boundary"
	"repro/internal/core/fd"
	"repro/internal/core/solver"
	"repro/internal/cvm"
	"repro/internal/grid"
	"repro/internal/medium"
	"repro/internal/mpi"
	"repro/internal/output"
	"repro/internal/telemetry"
)

// blockSteps is the number of Stepper.Step calls timed as one block.
const blockSteps = 10

// solveSpec is one solver run as the benchmark drives it.
type solveSpec struct {
	q   cvm.Querier
	opt solver.Options // as given to solver.Run (Prepare normalizes it)
	// split is the first step counted as steady state (a multiple of
	// blockSteps); steps before it are the wavefront transient.
	split int
	// probeStep is the step after which a traced run snapshots the
	// transient wavefield for the kernel probe (a multiple of blockSteps).
	probeStep int
}

// solveOut is what one runSolve call measured and produced.
type solveOut struct {
	res      *solver.Result
	setupS   float64   // Prepare + world + NewStepper on every rank
	wallS    float64   // first Step to the last rank's Finish
	blockSec []float64 // rank 0's timed blocks of blockSteps steps

	// Traced runs only.
	newStepperS, finishS float64 // slowest rank
	phaseSec             [telemetry.NumPhases]float64
	stepSec              float64 // timed Step blocks, summed over ranks
	sentMsgs, sentFloats int64
	subnormalPeak        float64
	transientSnap        *snapshot
	steadySnap           *snapshot
	stripeErr            error // rank 0's surface stripe audit (Surface runs)
	surface              *output.DistStats
}

// snapshot is a copy of rank 0's wavefield and attenuation memory.
type snapshot struct {
	st *fd.State
	z  []*grid.Field3 // ZXX, ZYY, ZZZ, ZXY, ZXZ, ZYZ
	dt float64
}

// stepPhases are the telemetry phases a classic Step spends its time in;
// none nests inside another, so their sum is the attributed step time.
var stepPhases = []telemetry.Phase{
	telemetry.Velocity, telemetry.Stress, telemetry.Attenuation, telemetry.Boundary,
	telemetry.Pack, telemetry.Send, telemetry.Recv, telemetry.Unpack,
	telemetry.Sync, telemetry.Output, telemetry.Agg,
}

// runSolve performs the Prepare → NewStepper → Step… → Finish sequence
// that solver.Run performs, timing each call from outside. With a tracer
// it also enables the solver's own telemetry (solver.Options.Telemetry),
// folds its phase totals into the Step-block spans, counts subnormal
// wavefield values and snapshots the transient and steady wavefields.
func runSolve(sp solveSpec, tr *tracer, parent int) (solveOut, error) {
	var out solveOut
	t0 := time.Now()
	ps := tr.start("solver.prepare", parent, -1)
	dc, opt, err := solver.Prepare(sp.opt)
	tr.end(ps)
	if err != nil {
		return out, err
	}
	traced := tr != nil
	if traced {
		opt.Telemetry = &telemetry.Options{}
	}
	n := opt.Topo.Size()
	world := mpi.NewWorld(n)

	setupEnd := make([]time.Time, n)
	finishEnd := make([]time.Time, n)
	errs := make([]error, n)
	newStepperS := make([]float64, n)
	finishS := make([]float64, n)
	phaseSec := make([][telemetry.NumPhases]float64, n)
	stepSec := make([]float64, n)
	sent := make([][2]int64, n)
	subnormal := make([][]int64, n) // per rank, per block
	values := make([]int64, n)
	var blocks []float64

	world.Run(func(c *mpi.Comm) {
		r := c.Rank()
		ns := tr.start("solver.new_stepper", parent, r)
		tn := time.Now()
		s, err := solver.NewStepper(c, sp.q, dc, opt)
		newStepperS[r] = time.Since(tn).Seconds()
		tr.end(ns)
		setupEnd[r] = time.Now()
		if err != nil {
			errs[r] = err
			return
		}
		defer s.Close()
		rec := s.Recorder()
		var prev [telemetry.NumPhases]float64
		for !s.Done() {
			bs := tr.start("solver.step_block", parent, r)
			tb := time.Now()
			for i := 0; i < blockSteps && !s.Done(); i++ {
				s.Step()
			}
			d := time.Since(tb).Seconds()
			tr.end(bs)
			if r == 0 {
				blocks = append(blocks, d)
			}
			if !traced {
				continue
			}
			stepSec[r] += d
			for _, p := range stepPhases {
				tot, _ := rec.PhaseTotal(p)
				tr.fold(bs, p.String(), tot-prev[p])
				prev[p] = tot
			}
			cnt, total := countSubnormal(s.State())
			subnormal[r] = append(subnormal[r], cnt)
			values[r] = total
			if r == 0 && s.StepIndex() == sp.probeStep {
				out.transientSnap = takeSnapshot(s)
			}
		}
		if traced && r == 0 && opt.Steps > sp.split {
			out.steadySnap = takeSnapshot(s)
		}
		fs := tr.start("solver.finish", parent, r)
		tf := time.Now()
		res, err := s.Finish()
		finishS[r] = time.Since(tf).Seconds()
		tr.end(fs)
		finishEnd[r] = time.Now()
		if err != nil {
			errs[r] = err
			return
		}
		if r == 0 {
			out.res = res
			if w := s.SurfaceWriter(); w != nil {
				out.stripeErr = w.VerifyStripes()
				out.surface = &w.Stats
			}
		}
		if traced {
			for p := 0; p < telemetry.NumPhases; p++ {
				phaseSec[r][p], _ = rec.PhaseTotal(telemetry.Phase(p))
			}
			for _, nb := range rec.Neighbors() {
				sent[r][0] += nb.SentMsgs
				sent[r][1] += nb.SentFloats
			}
		}
	})
	for r, e := range errs {
		if e != nil {
			return out, fmt.Errorf("rank %d: %w", r, e)
		}
	}
	setupDone, finished := latest(setupEnd), latest(finishEnd)
	out.setupS = setupDone.Sub(t0).Seconds()
	out.wallS = finished.Sub(setupDone).Seconds()
	out.blockSec = blocks
	if !traced {
		return out, nil
	}
	var totalValues int64
	for r := 0; r < n; r++ {
		out.newStepperS = math.Max(out.newStepperS, newStepperS[r])
		out.finishS = math.Max(out.finishS, finishS[r])
		for p := range out.phaseSec {
			out.phaseSec[p] += phaseSec[r][p]
		}
		out.stepSec += stepSec[r]
		out.sentMsgs += sent[r][0]
		out.sentFloats += sent[r][1]
		totalValues += values[r]
	}
	for b := range subnormal[0] {
		var cnt int64
		for r := 0; r < n; r++ {
			cnt += subnormal[r][b]
		}
		out.subnormalPeak = math.Max(out.subnormalPeak, float64(cnt)/float64(totalValues))
	}
	return out, nil
}

func latest(ts []time.Time) time.Time {
	var m time.Time
	for _, t := range ts {
		if t.After(m) {
			m = t
		}
	}
	return m
}

// countSubnormal counts the subnormal values among the interior cells of
// the nine wavefield components (exact; ghost copies excluded).
func countSubnormal(st *fd.State) (subnormal, total int64) {
	for _, f := range st.Fields() {
		sx, sy, sz := f.PaddedDims()
		g := f.G()
		nx, ny, nz := sx-2*g, sy-2*g, sz-2*g
		data := f.Data()
		for k := 0; k < nz; k++ {
			for j := 0; j < ny; j++ {
				base := f.Idx(0, j, k)
				for _, v := range data[base : base+nx] {
					if v != 0 && math.Abs(float64(v)) < 0x1p-126 {
						subnormal++
					}
				}
			}
		}
		total += int64(nx * ny * nz)
	}
	return subnormal, total
}

func takeSnapshot(s *solver.Stepper) *snapshot {
	snap := &snapshot{st: s.State().Clone(), dt: s.Dt()}
	if a := s.Atten(); a != nil {
		for _, z := range []*grid.Field3{a.ZXX, a.ZYY, a.ZZZ, a.ZXY, a.ZXZ, a.ZYZ} {
			snap.z = append(snap.z, z.Clone())
		}
	}
	return snap
}

// probeStressAtten times the public stress and attenuation kernels
// (fd.UpdateStress then attenuation.Model.Apply, the unfused pair the
// blocked default runs) over rank 0's whole subgrid, on fresh copies of
// a snapshot, and returns the median ns per cell over reps repetitions.
func probeStressAtten(sp solveSpec, snap *snapshot, reps int) (float64, error) {
	dc, opt, err := solver.Prepare(sp.opt)
	if err != nil {
		return 0, err
	}
	sub := dc.SubFor(0)
	med := medium.FromCVMGhost(sp.q, dc, sub, opt.H, fd.TemporalGhost(opt.TemporalDepth))
	atten := attenuation.New(med, opt.Band, snap.dt)
	work := snap.st.Clone()
	box := fd.FullBox(sub.Local)
	zs := []*grid.Field3{atten.ZXX, atten.ZYY, atten.ZZZ, atten.ZXY, atten.ZXZ, atten.ZYZ}
	var ns []float64
	for rep := 0; rep < reps; rep++ {
		for i, f := range work.Fields() {
			f.CopyFrom(snap.st.Fields()[i])
		}
		for i, z := range snap.z {
			zs[i].CopyFrom(z)
		}
		t := time.Now()
		fd.UpdateStress(work, med, snap.dt, box, opt.Variant, opt.Blocking)
		if opt.Attenuation {
			atten.Apply(work, med, snap.dt, box)
		}
		ns = append(ns, float64(time.Since(t).Nanoseconds())/float64(sub.Local.Cells()))
	}
	return median(ns), nil
}

// absorbingShellCells counts the global cells within width of an
// absorbing face: every face but the free surface at k = 0. It is the
// cell count the Boundary phase's per-cell cost is normalized by.
func absorbingShellCells(g grid.Dims, width int, freeSurface bool) int {
	zlo := width
	if freeSurface {
		zlo = 0
	}
	ix := max(g.NX-2*width, 0)
	iy := max(g.NY-2*width, 0)
	iz := max(g.NZ-width-zlo, 0)
	return g.Cells() - ix*iy*iz
}

// boundaryWidth is the absorbing-layer width Prepare resolves for opt.
func boundaryWidth(opt solver.Options) int {
	switch {
	case opt.ABC == solver.MPMLABC && opt.PMLWidth > 0:
		return opt.PMLWidth
	case opt.ABC == solver.MPMLABC:
		return boundary.DefaultPMLWidth
	case opt.ABC == solver.SpongeABC && opt.SpongeWidth > 0:
		return opt.SpongeWidth
	case opt.ABC == solver.SpongeABC:
		return boundary.DefaultSpongeWidth
	}
	return 0
}
