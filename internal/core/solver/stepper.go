package solver

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core/attenuation"
	"repro/internal/core/boundary"
	"repro/internal/core/fd"
	"repro/internal/core/sched"
	"repro/internal/core/source"
	"repro/internal/cvm"
	"repro/internal/decomp"
	"repro/internal/grid"
	"repro/internal/medium"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/output"
	"repro/internal/telemetry"
)

// Prepare normalizes opt (defaulting exactly as Run does) and builds the
// domain decomposition. External harnesses (internal/ft) call it once
// before spawning ranks so every rank sees identical resolved options.
func Prepare(opt Options) (decomp.Decomp, Options, error) {
	if opt.Topo.Size() == 0 {
		opt.Topo = mpi.NewCart(1, 1, 1)
	}
	if opt.Threads < 0 {
		return decomp.Decomp{}, opt, fmt.Errorf("solver: Threads must be >= 0, got %d", opt.Threads)
	}
	if opt.Dt < 0 {
		return decomp.Decomp{}, opt, fmt.Errorf("solver: Dt must be positive, or zero for automatic; got %g", opt.Dt)
	}
	if opt.CFL < 0 || opt.CFL > 1 {
		return decomp.Decomp{}, opt, fmt.Errorf("solver: CFL must lie in (0, 1], got %g", opt.CFL)
	}
	if opt.CFL == 0 {
		opt.CFL = 0.5
	}
	if err := opt.Variant.Validate(); err != nil {
		return decomp.Decomp{}, opt, fmt.Errorf("solver: %w", err)
	}
	if opt.Threads == 0 {
		opt.Threads = 1
	}
	if opt.RecordEvery <= 0 {
		opt.RecordEvery = 1
	}
	if opt.PMLWidth <= 0 {
		opt.PMLWidth = boundary.DefaultPMLWidth
	}
	if opt.SpongeWidth <= 0 {
		opt.SpongeWidth = boundary.DefaultSpongeWidth
	}
	if opt.SpongeAlpha <= 0 {
		opt.SpongeAlpha = boundary.DefaultSpongeAlpha
	}
	if opt.Band.FMax <= 0 {
		opt.Band = attenuation.DefaultBand
	}
	if opt.TemporalDepth == 0 {
		opt.TemporalDepth = 1
	}
	if opt.TemporalDepth < 1 || opt.TemporalDepth > fd.MaxTemporalDepth {
		return decomp.Decomp{}, opt, fmt.Errorf("solver: TemporalDepth must be in [1, %d], got %d",
			fd.MaxTemporalDepth, opt.TemporalDepth)
	}
	if T := opt.TemporalDepth; T > 1 {
		if opt.Comm == AsyncOverlap {
			return decomp.Decomp{}, opt, fmt.Errorf("solver: TemporalDepth > 1 does not support the overlap comm model (the super-step has no per-step exchange to overlap)")
		}
		if opt.ABC == MPMLABC {
			return decomp.Decomp{}, opt, fmt.Errorf("solver: TemporalDepth > 1 does not support M-PML boundaries (split-field zone state cannot be recomputed in ghost extensions)")
		}
		if opt.Fault != nil {
			return decomp.Decomp{}, opt, fmt.Errorf("solver: TemporalDepth > 1 does not support DFR fault mode")
		}
		need := 4 * T
		dims := [3]int{opt.Global.NX, opt.Global.NY, opt.Global.NZ}
		parts := [3]int{opt.Topo.PX, opt.Topo.PY, opt.Topo.PZ}
		for ax := 0; ax < 3; ax++ {
			if parts[ax] > 1 && dims[ax]/parts[ax] < need {
				return decomp.Decomp{}, opt, fmt.Errorf("solver: TemporalDepth %d needs >= %d cells per rank on decomposed axes; axis %d gives %d",
					T, need, ax, dims[ax]/parts[ax])
			}
		}
	}
	if so := opt.Surface; so != nil {
		if so.FS == nil || so.Path == "" {
			return decomp.Decomp{}, opt, fmt.Errorf("solver: Surface output needs FS and Path")
		}
		if opt.TemporalDepth > 1 || opt.LTS.Enabled {
			return decomp.Decomp{}, opt, fmt.Errorf("solver: Surface output requires classic stepping (TemporalDepth <= 1, LTS off): collective flushes need step-lockstep ranks")
		}
		// Normalize a copy so shared Options values are not mutated.
		ns := *so
		if ns.Every <= 0 {
			ns.Every = 1
		}
		if ns.FlushEvery <= 0 {
			ns.FlushEvery = 1
		}
		opt.Surface = &ns
	}
	if opt.LTS.Enabled {
		if opt.TemporalDepth > 1 {
			return decomp.Decomp{}, opt, fmt.Errorf("solver: LTS and TemporalDepth > 1 are mutually exclusive (pick one step-batching scheme)")
		}
		if opt.ABC == MPMLABC {
			return decomp.Decomp{}, opt, fmt.Errorf("solver: LTS does not support M-PML boundaries (split-field zone state has no rate-boundary interpolant)")
		}
		if opt.Fault != nil {
			return decomp.Decomp{}, opt, fmt.Errorf("solver: LTS does not support DFR fault mode")
		}
		switch opt.LTS.MaxK {
		case 0:
			opt.LTS.MaxK = 2
		case 1, 2:
		default:
			return decomp.Decomp{}, opt, fmt.Errorf("solver: LTS.MaxK must be 1 or 2 (0 defaults to 2), got %d", opt.LTS.MaxK)
		}
		switch opt.LTS.MaxRateRatio {
		case 0:
			opt.LTS.MaxRateRatio = 2
		case 2, 4:
		default:
			return decomp.Decomp{}, opt, fmt.Errorf("solver: LTS.MaxRateRatio must be 2 or 4 (0 defaults to 2), got %d", opt.LTS.MaxRateRatio)
		}
	}
	var dc decomp.Decomp
	var err error
	if pr := opt.LTS.PlaneRates; opt.LTS.Enabled && pr != nil {
		dc, err = decomp.NewWorkBalanced(opt.Global, opt.Topo, pr.X, pr.Y, pr.Z)
	} else {
		dc, err = decomp.New(opt.Global, opt.Topo)
	}
	if err != nil {
		return decomp.Decomp{}, opt, err
	}
	if opt.Fault != nil && opt.Topo.PY != 1 {
		return decomp.Decomp{}, opt, fmt.Errorf("solver: DFR mode requires PY=1 (fault plane may not cross rank seams in y)")
	}
	if opt.Fault != nil && opt.Comm == AsyncOverlap {
		return decomp.Decomp{}, opt, fmt.Errorf("solver: DFR mode does not support the overlap comm model")
	}
	return dc, opt, nil
}

// Stepper drives one rank of a prepared run one time step at a time —
// the re-entrant core of runRank, exposed so the fault-tolerance harness
// can interleave stepping with checkpointing and roll the step cursor
// back after a coordinated recovery. All per-step observables are
// index-addressed (receiver samples by sample index, moment rate by step,
// PGV by monotone max-fold), so replaying a step range after a rollback
// overwrites identical values and the final outputs stay bit-identical
// to an uninterrupted run. (DFR slip-rate *history* recording appends and
// is not replay-safe; harnesses must not combine Fault.RecordEvery with
// rollback.)
type Stepper struct {
	rs         *rankState
	opt        Options
	dc         decomp.Decomp
	c          *mpi.Comm
	dt         float64
	step       int
	momentRate []float64
	tm         Timing
	surfErr    error
}

// NewStepper builds one rank's solver state inside a world body. opt and
// dc must come from Prepare. Callers must Close the Stepper.
func NewStepper(c *mpi.Comm, q cvm.Querier, dc decomp.Decomp, opt Options) (*Stepper, error) {
	rs := &rankState{comm: c, sub: dc.SubFor(c.Rank())}
	// Depth > 1 pads every field (state, medium, memory variables) with a
	// uniform 4T-cell ghost frame; the kernels share one flat index across
	// the arrays, so the widths must agree.
	gw := fd.TemporalGhost(opt.TemporalDepth)
	rs.med = medium.FromCVMGhost(q, dc, rs.sub, opt.H, gw)
	rs.st = fd.NewStateG(rs.sub.Local, gw)
	rs.pool = sched.NewPool(opt.Threads)
	ok := false
	defer func() {
		if !ok {
			rs.pool.Close()
		}
	}()
	rs.hx = newHalo(c, opt.Topo, opt.CopyHalo, opt.CoalesceHalo, rs.pool)
	if opt.Telemetry != nil {
		rs.tel = telemetry.NewRecorder(c.Rank(), opt.Telemetry.TraceEvents)
		c.SetTelemetry(rs.tel)
		rs.pool.SetTelemetry(rs.tel)
		rs.hx.tel = rs.tel
	}
	for ax := 0; ax < 3; ax++ {
		rs.nbrMask[ax][0] = opt.Topo.Neighbor(c.Rank(), ax, -1) >= 0
		rs.nbrMask[ax][1] = opt.Topo.Neighbor(c.Rank(), ax, +1) >= 0
	}

	// Global stable dt at the configured CFL safety factor.
	dt := opt.Dt
	if dt <= 0 {
		dt = c.Allreduce([]float64{rs.med.StableDt(opt.CFL)}, mpi.Min)[0]
	}
	// Multi-rate local time stepping: assign per-rank rate-2^k clusters.
	// This rank's own state (attenuation coefficients, sponge strength,
	// source injection) is built against its local step dt·rate below.
	stepDt := dt
	if opt.LTS.Enabled {
		rs.lts = newLTSRank(c, opt, rs, dt)
		stepDt = rs.lts.localDt
	}

	// Boundary conditions on the physical faces this rank owns.
	faces := ownedFaces(dc, c.Rank(), opt)
	rs.compBox = fd.FullBox(rs.sub.Local)
	switch opt.ABC {
	case MPMLABC:
		vpMax := c.Allreduce([]float64{rs.med.MaxVp}, mpi.Max)[0]
		var zones []*boundary.PML
		zones, rs.compBox = boundary.BuildPML(rs.sub.Local, faces, opt.PMLWidth,
			boundary.DefaultMPMLRatio, boundary.DefaultPMLReflection, vpMax, opt.H)
		rs.pml = boundary.NewPMLSet(zones)
	case SpongeABC:
		globalFaces := boundary.FaceSet{
			XLo: true, XHi: true, YLo: true, YHi: true,
			ZLo: !opt.FreeSurface, ZHi: true,
		}
		alpha := opt.SpongeAlpha
		if rs.lts != nil && rs.lts.rate > 1 {
			// One coarse-step application must damp like `rate` base-step
			// applications; the exponential taper g = exp(-(αx)²)
			// composes exactly as g^rate = exp(-(α√rate·x)²).
			alpha *= math.Sqrt(float64(rs.lts.rate))
		}
		rs.sponge = boundary.NewSpongeGlobal(rs.sub.Local, opt.Global,
			[3]int{rs.sub.OffX, rs.sub.OffY, rs.sub.OffZ},
			opt.SpongeWidth, alpha, globalFaces)
	}
	if opt.FreeSurface && rs.sub.OffZ == 0 {
		rs.fs = boundary.NewFreeSurface(rs.sub.Local)
	}
	if opt.Attenuation {
		rs.atten = attenuation.New(rs.med, opt.Band, stepDt)
		rs.atten.Origin = [3]int{rs.sub.OffX, rs.sub.OffY, rs.sub.OffZ}
	}
	// At depth > 1 the stress stages recompute ghost cells up to 4T-4 deep
	// toward neighbors; a neighbor-owned source in that region must inject
	// here too, or the recomputed cells diverge from the owner's.
	var srcLo, srcHi [3]int
	if e := 4*opt.TemporalDepth - 4; opt.TemporalDepth > 1 {
		for ax := 0; ax < 3; ax++ {
			if rs.nbrMask[ax][0] {
				srcLo[ax] = e
			}
			if rs.nbrMask[ax][1] {
				srcHi[ax] = e
			}
		}
	}
	rs.srcs = source.LocalizeExt(opt.Sources, rs.sub, opt.H, srcLo, srcHi)

	if opt.Fault != nil {
		if err := rs.setupFault(opt, dt); err != nil {
			return nil, err
		}
	}

	// Receiver series are preallocated and sample-indexed so a replayed
	// step overwrites its own sample instead of appending a duplicate.
	nSamples := (opt.Steps + opt.RecordEvery - 1) / opt.RecordEvery
	for idx, r := range opt.Receivers {
		if li, lj, lk, ok := rs.sub.Contains(r[0], r[1], r[2]); ok {
			or := ownedReceiver{
				idx: idx, li: li, lj: lj, lk: lk,
				series: make([][3]float32, nSamples),
			}
			if rs.lts != nil && rs.lts.rate > 1 {
				or.sampled = make([]bool, nSamples)
			}
			rs.receivers = append(rs.receivers, or)
		}
	}
	if opt.TrackPGV && rs.sub.OffZ == 0 {
		n := rs.sub.Local.NX * rs.sub.Local.NY
		rs.pgvh = make([]float64, n)
		rs.pgvx = make([]float64, n)
		rs.pgvy = make([]float64, n)
		rs.pgvz = make([]float64, n)
	}
	rs.pgvFolded = opt.Variant.Precomputed() && rs.sponge != nil && rs.pgvh != nil &&
		opt.TemporalDepth <= 1

	if so := opt.Surface; so != nil {
		var segs []mpiio.Segment
		if rs.sub.OffZ == 0 {
			segs = mpiio.BlockSegments(grid.Dims{NX: opt.Global.NX, NY: opt.Global.NY, NZ: 1},
				rs.sub.OffX, rs.sub.OffX+rs.sub.Local.NX,
				rs.sub.OffY, rs.sub.OffY+rs.sub.Local.NY, 0, 1, SurfaceRecBytes)
		}
		frameBytes := opt.Global.NX * opt.Global.NY * SurfaceRecBytes
		d, err := output.NewDist(c, so.FS, so.Path, frameBytes, segs, so.FlushEvery, so.Agg, rs.tel)
		if err != nil {
			return nil, err
		}
		rs.surf = d
	}

	s := &Stepper{rs: rs, opt: opt, dc: dc, c: c, dt: dt}
	if opt.Fault != nil {
		s.momentRate = make([]float64, opt.Steps)
	}
	ok = true
	return s, nil
}

// Dt returns the resolved global time step.
func (s *Stepper) Dt() float64 { return s.dt }

// StepIndex returns the index of the next step to execute.
func (s *Stepper) StepIndex() int { return s.step }

// SetStepIndex rewinds (or advances) the step cursor — the rollback half
// of coordinated recovery, paired with a checkpoint.Load into State(). At
// temporal depth T > 1 the cursor must land on a super-step boundary (a
// multiple of T): mid-super-step wavefield states never exist to roll back
// to, and resuming off-boundary would misalign the erosion schedule.
func (s *Stepper) SetStepIndex(n int) error {
	if T := s.opt.TemporalDepth; T > 1 && n%T != 0 {
		return fmt.Errorf("solver: step index %d is not a super-step boundary (TemporalDepth %d)", n, T)
	}
	if l := s.rs.lts; l != nil && l.maxRate > 1 && n%l.maxRate != 0 {
		return fmt.Errorf("solver: step index %d is not an LTS cycle boundary (max rate %d)", n, l.maxRate)
	}
	if s.rs.surf != nil {
		// Drop buffered surface frames the replay will re-extract; flushed
		// frames are offset-addressed and overwrite identically.
		e := s.opt.Surface.Every
		s.rs.surf.Rewind((n + e - 1) / e)
	}
	s.step = n
	return nil
}

// StepAlign returns the alignment unit of checkpointable step indices:
// one LTS cycle (the maximum rate — mid-cycle, coarse ranks have no
// wavefield state to save), one temporal-tiling super-step, or 1 for
// classic stepping. Harnesses round checkpoint intervals up to it.
func (s *Stepper) StepAlign() int {
	if l := s.rs.lts; l != nil && l.maxRate > 1 {
		return l.maxRate
	}
	if T := s.opt.TemporalDepth; T > 1 {
		return T
	}
	return 1
}

// LTSRates returns the per-rank step-rate multipliers of an LTS run
// (identical on every rank), or nil when LTS is disabled.
func (s *Stepper) LTSRates() []int {
	if s.rs.lts == nil {
		return nil
	}
	return append([]int(nil), s.rs.lts.rates...)
}

// Done reports whether every configured step has executed.
func (s *Stepper) Done() bool { return s.step >= s.opt.Steps }

// State exposes the rank's wavefield state for checkpoint save/restore.
func (s *Stepper) State() *fd.State { return s.rs.st }

// Atten exposes the rank's attenuation memory variables (nil when
// attenuation is off) for checkpoint save/restore.
func (s *Stepper) Atten() *attenuation.Model { return s.rs.atten }

// PMLSplits exposes the split fields of the rank's M-PML zones (nil
// without M-PML) for checkpoint save/restore: they are time-stepping
// state, so a rollback that restored only State() and Atten() would
// replay with splits from a later step.
func (s *Stepper) PMLSplits() [][]float32 { return s.rs.pml.Splits() }

// Recorder exposes the rank's telemetry recorder (nil when telemetry is
// disabled) so harnesses can attribute checkpoint and recovery spans.
func (s *Stepper) Recorder() *telemetry.Recorder { return s.rs.tel }

// Step executes one full time step: kernels, halo exchange, sources,
// boundaries, and index-addressed observable extraction. At temporal depth
// T > 1 one call executes a whole super-step — T steps (fewer on the final
// partial super-step) with a single deep exchange — and the observables of
// every contained step are extracted inside the sweep; the step cursor
// advances by the number of steps executed.
func (s *Stepper) Step() {
	if l := s.rs.lts; l != nil && l.maxRate > 1 {
		// One call executes a whole cycle: maxRate base steps, during
		// which this rank takes maxRate/rate local steps. All messages a
		// cycle produces are consumed within it, so cycle boundaries are
		// clean checkpoint/rollback points.
		for u := 0; u < l.maxRate; u++ {
			sub := s.step + u
			if sub%l.rate != 0 {
				continue
			}
			s.rs.ltsAdvance(s.opt, l, sub, &s.tm)
			// Observables land on the base-step index this local step
			// reaches (its post-step state).
			rec := sub + l.rate - 1
			t0 := time.Now()
			sp := s.rs.tel.Span(telemetry.Output)
			if rec%s.opt.RecordEvery == 0 {
				si := rec / s.opt.RecordEvery
				for i := range s.rs.receivers {
					r := &s.rs.receivers[i]
					r.series[si] = [3]float32{
						s.rs.st.VX.At(r.li, r.lj, r.lk),
						s.rs.st.VY.At(r.li, r.lj, r.lk),
						s.rs.st.VZ.At(r.li, r.lj, r.lk),
					}
					if r.sampled != nil {
						r.sampled[si] = true
					}
				}
			}
			s.rs.trackPGV()
			sp.End()
			s.tm.Output += time.Since(t0).Seconds()
		}
		s.rs.tel.StepEnd()
		s.step += l.maxRate
		return
	}
	if T := s.opt.TemporalDepth; T > 1 {
		if left := s.opt.Steps - s.step; left < T {
			T = left
		}
		s.rs.advanceSuper(s.opt, s.dt, s.step, T, &s.tm)
		s.rs.tel.StepEnd()
		s.step += T
		return
	}
	step := s.step
	tNow := float64(step+1) * s.dt
	s.rs.advance(s.opt, s.dt, tNow, &s.tm)

	if s.rs.fault != nil {
		s.momentRate[step] = s.rs.fault.MomentRate(s.rs.med)
		if s.rs.recorder != nil && step%s.opt.Fault.RecordEvery == 0 {
			s.rs.recorder.Record()
		}
	}

	t0 := time.Now()
	sp := s.rs.tel.Span(telemetry.Output)
	if step%s.opt.RecordEvery == 0 {
		si := step / s.opt.RecordEvery
		for i := range s.rs.receivers {
			r := &s.rs.receivers[i]
			r.series[si] = [3]float32{
				s.rs.st.VX.At(r.li, r.lj, r.lk),
				s.rs.st.VY.At(r.li, r.lj, r.lk),
				s.rs.st.VZ.At(r.li, r.lj, r.lk),
			}
		}
	}
	s.rs.trackPGV()
	sp.End()
	if s.rs.surf != nil && step%s.opt.Surface.Every == 0 {
		if err := s.rs.surf.AppendFrame(step/s.opt.Surface.Every, s.rs.packSurfaceFrame()); err != nil && s.surfErr == nil {
			s.surfErr = err
		}
	}
	s.tm.Output += time.Since(t0).Seconds()
	s.rs.tel.StepEnd()
	s.step = step + 1
}

// Finish gathers all per-rank outputs at rank 0 (collective: every rank
// must call it) and returns the rank-0 Result (nil on other ranks).
func (s *Stepper) Finish() (*Result, error) {
	// Final surface flush first — a collective, like the gathers below,
	// so every rank takes it in the same order.
	if s.rs.surf != nil {
		if err := s.rs.surf.Flush(); err != nil && s.surfErr == nil {
			s.surfErr = err
		}
	}
	// Coarse LTS ranks fill the seismogram samples they never computed
	// by linear interpolation before the gather.
	s.rs.ltsFillReceivers()
	res, err := s.rs.collect(s.c, s.dc, s.opt, s.dt, s.momentRate, s.tm)
	if err == nil && s.surfErr != nil {
		err = s.surfErr
	}
	if err != nil {
		return nil, err
	}
	if res != nil && s.rs.surf != nil {
		res.Surface = &s.rs.surf.Stats
	}
	return res, nil
}

// SurfaceWriter exposes the rank's aggregated surface-output writer
// (nil when Options.Surface is unset) so harnesses can verify stripe
// checksums after a run.
func (s *Stepper) SurfaceWriter() *output.Dist { return s.rs.surf }

// Close releases the rank's worker pool.
func (s *Stepper) Close() { s.rs.pool.Close() }
