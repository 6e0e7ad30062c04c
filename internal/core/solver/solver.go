package solver

import (
	"math"
	"time"

	"repro/internal/agg"
	"repro/internal/core/attenuation"
	"repro/internal/core/boundary"
	"repro/internal/core/fd"
	"repro/internal/core/rupture"
	"repro/internal/core/sched"
	"repro/internal/core/source"
	"repro/internal/cvm"
	"repro/internal/decomp"
	"repro/internal/grid"
	"repro/internal/medium"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/output"
	"repro/internal/pfs"
	"repro/internal/telemetry"
)

// ABCKind selects the absorbing boundary treatment (§II.D).
type ABCKind int

const (
	// NoABC leaves rigid outer boundaries (verification runs only).
	NoABC ABCKind = iota
	// SpongeABC uses Cerjan sponge layers — unconditionally stable.
	SpongeABC
	// MPMLABC uses split-field multi-axial PMLs (the M8 production choice).
	MPMLABC
)

// FaultSpec configures DFR (SGSN) mode: a dynamic rupture on the plane
// y = J0*h, with per-node initial stress and friction given on the global
// fault window [I0,I1) x [K0,K1).
type FaultSpec struct {
	J0             int
	I0, I1, K0, K1 int
	Tau0           [][]float64
	SigmaN         [][]float64
	Friction       [][]rupture.Friction
	// RecordEvery > 0 records slip-rate histories every that many steps
	// (for the dynamic-to-kinematic transfer).
	RecordEvery int
}

// Options configures a run.
type Options struct {
	Global grid.Dims
	H      float64
	// Dt is the time step. 0 derives it from the medium at the CFL
	// safety factor; explicitly negative values are rejected.
	Dt    float64
	Steps int
	Topo  mpi.Cart // zero value: single rank

	// CFL is the safety factor applied to the medium's 4th-order
	// stability bound when Dt is derived automatically. 0 defaults to
	// the historical 0.5; explicit values must lie in (0, 1] (1 is the
	// stability bound itself — the cfl4 and sqrt(3) factors are already
	// part of the bound). LTS rate assignment reuses the same factor for
	// per-rank stable steps.
	CFL float64

	// LTS configures multi-rate local time stepping (see LTSOptions).
	// Mutually exclusive with TemporalDepth > 1, M-PML and DFR mode.
	LTS LTSOptions

	Comm     CommModel
	Variant  fd.Variant
	Blocking fd.Blocking
	// TemporalDepth T > 1 enables time-tiled execution: each super-step
	// advances T leapfrog steps over cache-resident k-chunks with skewed
	// stage windows, exchanging 4T-deep halos once per super-step (one
	// message per neighbor per super-step when coalesced) instead of two
	// 2-deep exchanges per step. Results are bit-identical to depth 1.
	// 0 defaults to 1 (classic stepping); the maximum is
	// fd.MaxTemporalDepth. Depth > 1 requires the AsyncOverlap comm
	// model, M-PML boundaries and DFR fault mode to be off, and every
	// decomposed axis to give each rank at least 4T cells.
	TemporalDepth int
	// Threads sets the per-rank worker-pool size of the hybrid MPI/OpenMP
	// mode (§IV.D): a persistent pool of Threads goroutines executes the
	// kernel loops as a queue of j/k tiles (shape Blocking). 0 defaults to
	// 1 (pure MPI); negative values are rejected by Run. Every comm model
	// honors Threads: Synchronous, Asynchronous and AsyncReduced run the
	// bulk kernels, attenuation, sponge and PGV tracking on the pool;
	// AsyncOverlap additionally runs the boundary strips and the interior
	// update on the pool while halo messages are in flight.
	Threads int
	// CopyHalo selects the legacy copying message path (mpi.Comm.Send's
	// defensive copy) instead of the default zero-copy buffer-lending
	// path. Results are bit-identical; the switch exists so benchmarks can
	// isolate the messaging-layer gain.
	CopyHalo bool
	// CoalesceHalo packs every face bound for one neighbor in one phase
	// into a single pooled buffer sent as one message (see coalesce.go),
	// instead of the per-field unique-tag scheme — at most one message per
	// neighbor per phase. Pack/unpack run as tiles on the rank's worker
	// pool. Results are bit-identical under every comm model and both
	// buffer disciplines; the tuner enables it when the per-message cost
	// dominates (multi-rank runs with small faces).
	CoalesceHalo bool

	ABC         ABCKind
	PMLWidth    int
	SpongeWidth int
	SpongeAlpha float64
	FreeSurface bool

	Attenuation bool
	Band        attenuation.Band

	Sources []source.SampledSource
	Fault   *FaultSpec

	Receivers   [][3]int // global (i,j,k) seismogram locations
	RecordEvery int      // seismogram decimation (default 1)
	TrackPGV    bool     // accumulate surface peak velocity maps

	// Surface streams decimated free-surface velocity frames to a single
	// file through the two-phase aggregated I/O layer (internal/agg) —
	// the production M8 output path. nil disables it. Requires classic
	// stepping (TemporalDepth <= 1, LTS off): frames are extracted in
	// step lockstep across ranks because each flush is a collective.
	Surface *SurfaceOptions

	// Telemetry enables the per-rank instrumentation subsystem
	// (internal/telemetry): span timers per phase, per-neighbor message
	// counters, optional ring-buffered event traces, and the cross-rank
	// aggregated report in Result.Telemetry. nil (the default) disables
	// every probe — hot paths see only nil checks, the step schedule is
	// unchanged, and results are bit-identical either way.
	Telemetry *telemetry.Options
}

// Result collects rank-0 outputs of a run.
type Result struct {
	Steps int
	Dt    float64

	// Seismograms[r][n] is the velocity vector at receiver r, sample n.
	Seismograms [][][3]float32

	// Surface peak-velocity maps (global NX x NY, row-major y-fastest...
	// indexed [j*NX+i]); nil unless TrackPGV.
	PGVH []float64 // peak root-sum-square horizontal velocity
	PGVX []float64 // peak |vx|
	PGVY []float64 // peak |vy|
	PGVZ []float64 // peak |vz|

	// Fault outputs (DFR mode): global window arrays [K1-K0][I1-I0].
	FaultSlip     [][]float64
	FaultPeakRate [][]float64
	FaultRupTime  [][]float64
	FaultStats    rupture.Stats
	MomentRate    []float64 // per step, N*m/s

	// Slip-rate histories for the kinematic transfer: series[node] with
	// node coordinates in SlipNodes; populated when Fault.RecordEvery > 0.
	SlipNodes  [][3]int
	SlipSeries [][]float32
	SlipDt     float64

	// Timing is the per-phase max across ranks (the Eq. 7 decomposition).
	Timing Timing

	// Telemetry is the aggregated per-phase instrumentation report; nil
	// unless Options.Telemetry was set.
	Telemetry *telemetry.Report

	// Surface is the aggregated surface-output accounting (frames,
	// flushes, opens, virtual phase cost, per-stripe checksums); nil
	// unless Options.Surface was set.
	Surface *output.DistStats
}

// SurfaceOptions configures the aggregated surface-velocity output path.
type SurfaceOptions struct {
	FS   *pfs.FS
	Path string
	// Every is the step decimation: frame f holds the state after step
	// f·Every. <= 0 defaults to 1.
	Every int
	// FlushEvery is how many buffered frames trigger one collective
	// aggregated flush. <= 0 defaults to 1 (the pathological
	// per-step-flush mode the paper's aggregation removed).
	FlushEvery int
	// Agg tunes the aggregated collective write (writer count, open
	// throttle, tag).
	Agg agg.Config
}

// SurfaceRecBytes is the per-point record of a surface frame: vx, vy, vz
// as float32.
const SurfaceRecBytes = 12

// Timing is the measured Eq. 7 decomposition.
type Timing struct {
	Comp, Comm, Sync, Output float64 // seconds
}

// Run executes the simulation and returns the rank-0 result.
func Run(q cvm.Querier, opt Options) (*Result, error) {
	opt, err := PlanLTS(q, opt)
	if err != nil {
		return nil, err
	}
	dc, opt, err := Prepare(opt)
	if err != nil {
		return nil, err
	}

	var result *Result
	var runErr error
	world := mpi.NewWorld(opt.Topo.Size())
	world.Run(func(c *mpi.Comm) {
		r, e := runRank(c, q, dc, opt)
		if c.Rank() == 0 {
			result, runErr = r, e
		}
	})
	if runErr != nil {
		return nil, runErr
	}
	return result, nil
}

// rank-local solver state.
type rankState struct {
	comm *mpi.Comm
	sub  decomp.Sub
	med  *medium.Medium
	st   *fd.State
	hx   *halo
	pool *sched.Pool
	tel  *telemetry.Recorder // nil: telemetry disabled

	nbrMask [3][2]bool

	pml      *boundary.PMLSet // M-PML zones (nil: none)
	compBox  fd.Box           // non-PML region the bulk kernels cover
	sponge   *boundary.Sponge
	fs       *boundary.FreeSurface
	atten    *attenuation.Model
	srcs     *source.Set
	fault    *rupture.Fault
	recorder *rupture.SlipRateHistoryRecorder

	lts *ltsRank // non-nil when Options.LTS.Enabled

	surf *output.Dist // aggregated surface output (nil: disabled)

	receivers []ownedReceiver
	pgvh      []float64
	pgvx      []float64
	pgvy      []float64
	pgvz      []float64
	// pgvFolded marks that the PGV fold rides inside the sponge's fused
	// surface pass (precomputed variant + sponge ABC), so the Output-phase
	// trackPGV call must not fold a second time.
	pgvFolded bool
}

type ownedReceiver struct {
	idx        int
	li, lj, lk int
	series     [][3]float32
	// sampled marks the indices a rate-2^k LTS rank actually recorded;
	// the gaps are interpolated in Finish. Nil on rate-1 ranks.
	sampled []bool
}

func runRank(c *mpi.Comm, q cvm.Querier, dc decomp.Decomp, opt Options) (*Result, error) {
	s, err := NewStepper(c, q, dc, opt)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	for !s.Done() {
		s.Step()
	}
	return s.Finish()
}

// ownedFaces reduces the ABC face set to the physical faces of this rank,
// excluding the free surface.
func ownedFaces(dc decomp.Decomp, rank int, opt Options) boundary.FaceSet {
	bf := dc.BoundaryFaces(rank)
	fs := boundary.FaceSet{
		XLo: bf[grid.X][0], XHi: bf[grid.X][1],
		YLo: bf[grid.Y][0], YHi: bf[grid.Y][1],
		ZLo: bf[grid.Z][0] && !opt.FreeSurface,
		ZHi: bf[grid.Z][1],
	}
	return fs
}

func (rs *rankState) setupFault(opt Options, dt float64) error {
	f := opt.Fault
	// Clip the global window to this rank's x/z extent.
	i0 := max(f.I0, rs.sub.OffX)
	i1 := min(f.I1, rs.sub.OffX+rs.sub.Local.NX)
	k0 := max(f.K0, rs.sub.OffZ)
	k1 := min(f.K1, rs.sub.OffZ+rs.sub.Local.NZ)
	if i1 <= i0 || k1 <= k0 {
		return nil // no fault nodes on this rank
	}
	nk, ni := k1-k0, i1-i0
	tau := make([][]float64, nk)
	sn := make([][]float64, nk)
	fr := make([][]rupture.Friction, nk)
	for k := 0; k < nk; k++ {
		gk := k0 + k - f.K0
		tau[k] = f.Tau0[gk][i0-f.I0 : i0-f.I0+ni]
		sn[k] = f.SigmaN[gk][i0-f.I0 : i0-f.I0+ni]
		fr[k] = f.Friction[gk][i0-f.I0 : i0-f.I0+ni]
	}
	cfg := rupture.Config{
		J0: f.J0 - rs.sub.OffY,
		I0: i0 - rs.sub.OffX, I1: i1 - rs.sub.OffX,
		K0: k0 - rs.sub.OffZ, K1: k1 - rs.sub.OffZ,
		Tau0: tau, SigmaN: sn, Friction: fr,
	}
	ft, err := rupture.NewFault(cfg, rs.sub.Local, rs.med.H)
	if err != nil {
		return err
	}
	rs.fault = ft
	if f.RecordEvery > 0 {
		rs.recorder = rupture.NewRecorder(ft, dt*float64(f.RecordEvery), 1<<20)
	}
	return nil
}

// advance performs one full time step with the configured comm model,
// accumulating the Eq. 7 timing decomposition. All bulk work runs as tile
// queues on the rank's persistent worker pool; with Threads=1 the pool
// degenerates to inline serial execution and the schedule is identical to
// the original code.
func (rs *rankState) advance(opt Options, dt, tNow float64, tm *Timing) {
	// --- Velocity phase ---
	t0 := time.Now()
	if opt.Comm == AsyncOverlap {
		strips, inner := boundaryStrips(rs.sub.Local, rs.nbrMask, grid.Ghost)
		sp := rs.tel.Span(telemetry.Velocity)
		fd.ForEachTileMulti(rs.clipStrips(strips), opt.Blocking, rs.pool, func(b fd.Box) {
			fd.UpdateVelocity(rs.st, rs.med, dt, b, opt.Variant, opt.Blocking)
		})
		sp.End()
		sp = rs.tel.Span(telemetry.Boundary)
		rs.pml.UpdateVelocity(rs.st, rs.med, dt, rs.pool)
		sp.End()
		tm.Comp += time.Since(t0).Seconds()
		t0 = time.Now()
		fin := rs.hx.post(phaseVelocity, opt.Comm, rs.st.Velocities(), []int{0, 1, 2})
		tm.Comm += time.Since(t0).Seconds()
		t0 = time.Now()
		sp = rs.tel.Span(telemetry.Velocity)
		fd.UpdateVelocityTiled(rs.st, rs.med, dt, intersect(inner, rs.compBox), opt.Variant, opt.Blocking, rs.pool)
		sp.End()
		tm.Comp += time.Since(t0).Seconds()
		t0 = time.Now()
		fin()
		tm.Comm += time.Since(t0).Seconds()
	} else {
		sp := rs.tel.Span(telemetry.Velocity)
		fd.UpdateVelocityTiled(rs.st, rs.med, dt, rs.compBox, opt.Variant, opt.Blocking, rs.pool)
		sp.End()
		sp = rs.tel.Span(telemetry.Boundary)
		rs.pml.UpdateVelocity(rs.st, rs.med, dt, rs.pool)
		sp.End()
		if rs.fault != nil {
			rs.fault.UpdateVelocity(rs.st, rs.med, dt)
		}
		tm.Comp += time.Since(t0).Seconds()
		t0 = time.Now()
		rs.hx.exchangeVelocities(rs.st, opt.Comm)
		tm.Comm += time.Since(t0).Seconds()
		if opt.Comm == Synchronous {
			t0 = time.Now()
			sp = rs.tel.Span(telemetry.Sync)
			rs.comm.Barrier()
			sp.End()
			tm.Sync += time.Since(t0).Seconds()
		}
	}
	t0 = time.Now()
	if rs.fs != nil {
		sp := rs.tel.Span(telemetry.Boundary)
		rs.fs.ApplyVelocity(rs.st, rs.med)
		sp.End()
	}
	tm.Comp += time.Since(t0).Seconds()

	// --- Stress phase ---
	// The sponge runs after the exchange (it damps ghost copies with the
	// same global taper, so every rank damps identical physical cells);
	// source injection runs before the strips are packed so neighbor
	// ghosts include it. Attenuation rides in the same tile as the elastic
	// stress update: it writes the same disjoint tile region, so the pair
	// stays race-free and cell-ordered.
	t0 = time.Now()
	if opt.Comm == AsyncOverlap {
		strips, inner := boundaryStrips(rs.sub.Local, rs.nbrMask, grid.Ghost)
		fd.ForEachTileMulti(rs.clipStrips(strips), opt.Blocking, rs.pool, rs.stressTile(opt, dt))
		sp := rs.tel.Span(telemetry.Boundary)
		rs.pml.UpdateStress(rs.st, rs.med, dt, rs.pool)
		sp.End()
		inner2 := intersect(inner, rs.compBox)
		rs.srcs.InjectRegion(rs.st, dt, tNow, inner2, false) // strip sources
		tm.Comp += time.Since(t0).Seconds()
		t0 = time.Now()
		fin := rs.hx.post(phaseStress, opt.Comm, rs.st.Stresses(), []int{3, 4, 5, 6, 7, 8})
		tm.Comm += time.Since(t0).Seconds()
		t0 = time.Now()
		fd.ForEachTile(inner2, opt.Blocking, rs.pool, rs.stressTile(opt, dt))
		rs.srcs.InjectRegion(rs.st, dt, tNow, inner2, true) // interior sources
		tm.Comp += time.Since(t0).Seconds()
		t0 = time.Now()
		fin()
		tm.Comm += time.Since(t0).Seconds()
	} else {
		if rs.fault == nil {
			fd.ForEachTile(rs.compBox, opt.Blocking, rs.pool, rs.stressTile(opt, dt))
			sp := rs.tel.Span(telemetry.Boundary)
			rs.pml.UpdateStress(rs.st, rs.med, dt, rs.pool)
			sp.End()
		} else {
			// DFR mode: the split-node correction must see the purely
			// elastic stress, so attenuation runs after it (the seed
			// ordering) instead of fused into the stress tiles.
			sp := rs.tel.Span(telemetry.Stress)
			fd.UpdateStressTiled(rs.st, rs.med, dt, rs.compBox, opt.Variant, opt.Blocking, rs.pool)
			sp.End()
			sp = rs.tel.Span(telemetry.Boundary)
			rs.pml.UpdateStress(rs.st, rs.med, dt, rs.pool)
			sp.End()
			rs.fault.CorrectStress(rs.st, rs.med, dt)
			if rs.atten != nil {
				sp = rs.tel.Span(telemetry.Attenuation)
				rs.atten.ApplyTiled(rs.st, rs.med, dt, rs.compBox, opt.Blocking, rs.pool)
				sp.End()
			}
		}
		rs.srcs.Inject(rs.st, dt, tNow)
		tm.Comp += time.Since(t0).Seconds()
		t0 = time.Now()
		rs.hx.exchangeStresses(rs.st, opt.Comm)
		tm.Comm += time.Since(t0).Seconds()
		if opt.Comm == Synchronous {
			t0 = time.Now()
			sp := rs.tel.Span(telemetry.Sync)
			rs.comm.Barrier()
			sp.End()
			tm.Sync += time.Since(t0).Seconds()
		}
	}
	t0 = time.Now()
	if rs.sponge != nil {
		sp := rs.tel.Span(telemetry.Boundary)
		if rs.pgvFolded {
			rs.sponge.ApplySurfaceFused(rs.st, rs.pool, rs.trackPGVRow)
		} else {
			rs.sponge.ApplyPool(rs.st, rs.pool)
		}
		sp.End()
	}
	if rs.fs != nil {
		sp := rs.tel.Span(telemetry.Boundary)
		rs.fs.ApplyStress(rs.st)
		sp.End()
	}
	tm.Comp += time.Since(t0).Seconds()
}

// stressTile returns the fused stress+attenuation tile body shared by the
// bulk and overlap stress phases. Spans sit inside the tile so the fusion
// (and hence the pool schedule and bit-identity) is untouched while
// attenuation time is still attributed separately; Span.End is safe from
// concurrent pool workers.
func (rs *rankState) stressTile(opt Options, dt float64) func(fd.Box) {
	if opt.Variant.Precomputed() && rs.atten != nil {
		// Fully fused sweep: the memory-variable update runs point-by-point
		// inside the elastic i-loop, one read/modify/write of the six
		// stress fields per step instead of two. Bit-identical to the
		// two-pass tile below, which only the Naive/Recip ablation kernels
		// take; the combined time lands in the Stress span (there is no
		// separate attenuation pass to time).
		return func(b fd.Box) {
			sp := rs.tel.Span(telemetry.Stress)
			rs.atten.FusedStress(rs.st, rs.med, dt, b)
			sp.End()
		}
	}
	return func(b fd.Box) {
		sp := rs.tel.Span(telemetry.Stress)
		fd.UpdateStress(rs.st, rs.med, dt, b, opt.Variant, opt.Blocking)
		sp.End()
		if rs.atten != nil {
			sp = rs.tel.Span(telemetry.Attenuation)
			rs.atten.Apply(rs.st, rs.med, dt, b)
			sp.End()
		}
	}
}

// clipStrips intersects the overlap boundary strips with the non-PML
// computation box, dropping strips the PML zones fully absorb.
func (rs *rankState) clipStrips(strips []fd.Box) []fd.Box {
	out := strips[:0]
	for _, b := range strips {
		if sb := intersect(b, rs.compBox); !sb.Empty() {
			out = append(out, sb)
		}
	}
	return out
}

// trackPGV folds the current surface velocities into the peak maps,
// row-sliced over the pool (rows are disjoint, so the parallel fold is
// race-free and bit-identical to the serial one).
func (rs *rankState) trackPGV() {
	if rs.pgvh == nil || rs.pgvFolded {
		return
	}
	rs.pool.ForEachN(rs.sub.Local.NY, rs.trackPGVRow)
}

// trackPGVRow folds surface row j through contiguous row slices instead
// of per-point bounds-checked At() calls.
func (rs *rankState) trackPGVRow(j int) {
	nx := rs.sub.Local.NX
	base := rs.st.VX.Idx(0, j, 0) // identical layout across components
	vxr := rs.st.VX.Data()[base : base+nx]
	vyr := rs.st.VY.Data()[base : base+nx]
	vzr := rs.st.VZ.Data()[base : base+nx]
	ph := rs.pgvh[j*nx : (j+1)*nx]
	px := rs.pgvx[j*nx : (j+1)*nx]
	py := rs.pgvy[j*nx : (j+1)*nx]
	pz := rs.pgvz[j*nx : (j+1)*nx]
	for i := 0; i < nx; i++ {
		vx, vy, vz := float64(vxr[i]), float64(vyr[i]), float64(vzr[i])
		if h := math.Hypot(vx, vy); h > ph[i] {
			ph[i] = h
		}
		if a := math.Abs(vx); a > px[i] {
			px[i] = a
		}
		if a := math.Abs(vy); a > py[i] {
			py[i] = a
		}
		if a := math.Abs(vz); a > pz[i] {
			pz[i] = a
		}
	}
}

// packSurfaceFrame serializes this rank's free-surface velocity
// rectangle for one output frame: vx, vy, vz per point, x fastest then
// y, matching the in-frame file view built in NewStepper. Returns nil on
// ranks that own no surface points.
func (rs *rankState) packSurfaceFrame() []byte {
	if rs.sub.OffZ != 0 {
		return nil
	}
	nx, ny := rs.sub.Local.NX, rs.sub.Local.NY
	buf := make([]float32, nx*ny*3)
	for j := 0; j < ny; j++ {
		base := rs.st.VX.Idx(0, j, 0)
		vxr := rs.st.VX.Data()[base : base+nx]
		vyr := rs.st.VY.Data()[base : base+nx]
		vzr := rs.st.VZ.Data()[base : base+nx]
		o := j * nx * 3
		for i := 0; i < nx; i++ {
			buf[o] = vxr[i]
			buf[o+1] = vyr[i]
			buf[o+2] = vzr[i]
			o += 3
		}
	}
	return mpiio.PutFloat32s(buf)
}

func intersect(a, b fd.Box) fd.Box {
	return fd.Box{
		I0: max(a.I0, b.I0), I1: min(a.I1, b.I1),
		J0: max(a.J0, b.J0), J1: min(a.J1, b.J1),
		K0: max(a.K0, b.K0), K1: min(a.K1, b.K1),
	}
}
