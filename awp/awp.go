// Package awp is the public API of this AWP-ODC reproduction: anelastic
// wave propagation (AWM) and staggered-grid split-node dynamic rupture
// (DFR) on a 3D velocity–stress staggered grid, with the petascale
// ecosystem of the SC'10 paper (mesh generation and partitioning, source
// generation, parallel output, checkpointing, performance modeling, and
// ground-motion analysis) available through the sub-packages of
// repro/internal for advanced use.
//
// Quick start:
//
//	q := awp.SoCalModel(20e3, 20e3, 10e3, 500)
//	res, err := awp.Run(q, awp.Scenario{
//	    Dims: awp.Dims{NX: 40, NY: 40, NZ: 20},
//	    H:    500, Steps: 300,
//	    Sources: awp.PointMomentSource(20, 20, 10, 1e17, 0.5, 0.1),
//	    TrackPGV: true,
//	})
package awp

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/core/fd"
	"repro/internal/core/rupture"
	"repro/internal/core/solver"
	"repro/internal/core/source"
	"repro/internal/cvm"
	"repro/internal/decomp"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/telemetry"
	"repro/internal/tuner"
)

// Dims is the global grid extent in cells.
type Dims = grid.Dims

// Material is a (Vp, Vs, rho) property triple.
type Material = cvm.Material

// Model is a queryable velocity model.
type Model = cvm.Querier

// Result carries the rank-0 outputs of a run.
type Result = solver.Result

// Seismogram is one receiver's three-component velocity time series.
type Seismogram = [][3]float32

// FaultSpec configures dynamic-rupture (DFR) mode.
type FaultSpec = solver.FaultSpec

// Friction is the slip-weakening friction law parameters.
type Friction = rupture.Friction

// GMPE is a ground-motion prediction equation (Fig 23 comparisons).
type GMPE = analysis.GMPE

// TelemetryOptions enables the per-rank phase instrumentation; the
// aggregated report lands in Result.Telemetry and can be exported as a
// Chrome trace with its WriteChromeTrace method.
type TelemetryOptions = telemetry.Options

// TelemetryReport is the aggregated cross-rank phase report.
type TelemetryReport = telemetry.Report

// Comm models (§IV.A of the paper).
const (
	Synchronous  = solver.Synchronous
	Asynchronous = solver.Asynchronous
	AsyncReduced = solver.AsyncReduced
	AsyncOverlap = solver.AsyncOverlap
)

// Absorbing boundary kinds (§II.D).
const (
	NoABC     = solver.NoABC
	SpongeABC = solver.SpongeABC
	MPMLABC   = solver.MPMLABC
)

// Scenario is a simulation configuration with sane defaults: asynchronous
// reduced communication, M-PML sides/bottom, FS2 free surface on top, and
// coarse-grained constant-Q attenuation.
type Scenario struct {
	Dims  Dims
	H     float64 // grid spacing, m
	Dt    float64 // 0: automatic at the CFL safety factor; negative rejected
	Steps int

	// CFL is the safety factor for the automatic time step (and for LTS
	// rate assignment). 0 defaults to the historical 0.5; explicit values
	// must lie in (0, 1].
	CFL float64

	// LTS enables multi-rate local time stepping: ranks whose subgrid
	// medium admits a larger stable step advance with dt*2^k (k capped by
	// LTSMaxK), exchanging rate-boundary halos through time-interpolated
	// ghost sections, and the decomposition places work-weighted cuts
	// from a velocity-model scan. Runs whose assigned rates are all 1 are
	// bit-identical to LTS off; mixed-rate runs trade rate-boundary
	// accuracy for wall-clock (see DESIGN.md section 12). Mutually
	// exclusive with explicit TemporalDepth > 1, M-PML and DFR mode.
	LTS bool
	// LTSMaxK caps the rate exponent (rates up to 2^LTSMaxK); 0 defaults
	// to 2. LTSMaxRateRatio caps the rate ratio across a rank seam; 0
	// defaults to 2 (4 allows a rate-1/rate-4 seam).
	LTSMaxK, LTSMaxRateRatio int

	// Ranks is the number of MPI ranks (goroutines); 0 or 1 runs single
	// rank. The 3D topology is chosen automatically.
	Ranks int

	// Threads is each rank's persistent worker-pool size (the hybrid
	// MPI/OpenMP mode, §IV.D); 0 or 1 runs each rank serially, negative
	// values are rejected. Results are bit-identical across Threads.
	Threads int

	// CopyHalo selects the legacy copying halo-message path instead of
	// the default zero-copy buffer lending (benchmarking aid; results
	// are bit-identical).
	CopyHalo bool

	// CoalesceHalo packs all faces bound for one neighbor in one phase
	// into a single message (one per neighbor per phase instead of one
	// per field per face); results are bit-identical.
	CoalesceHalo bool

	Comm        solver.CommModel
	ABC         solver.ABCKind
	SpongeWidth int // 0: 8 cells (laptop-scale default; production uses 20)
	FreeSurface bool
	Attenuation bool

	// Variant selects the stencil kernel: "" (the Blocked default), one of
	// the ladder names "naive", "recip", "precomp", "blocked", "unrolled",
	// "fused", or "auto" to run the per-machine kernel autotuner on the
	// rank-0 subgrid shape (winner cached in a JSON profile, so only the
	// first run on a machine pays the micro-benchmark). Every name but
	// "naive" and "recip" (the division-based ablation rungs) runs the
	// production kernel; "blocked" adds its cache-blocking panels.
	Variant string

	// JBlock/KBlock override the cache-blocking tile (0: DefaultBlocking,
	// or the autotuned blocking when Variant is "auto").
	JBlock, KBlock int

	// TemporalDepth T > 1 enables time-tiled super-steps: T leapfrog steps
	// per deep halo exchange (allowed values 1, 2, 4; 0 means 1, or the
	// autotuned depth when Variant is "auto"). Results are bit-identical
	// across depths. Forced back to 1 when a feature the tiled engine does
	// not cover is active (M-PML, overlapped comm, dynamic rupture).
	TemporalDepth int

	// TunerCachePath overrides the autotuner profile location ("" uses the
	// per-user default under os.UserCacheDir).
	TunerCachePath string

	Sources   []source.SampledSource
	Fault     *FaultSpec
	Receivers [][3]int
	TrackPGV  bool

	// Telemetry enables per-rank phase instrumentation (nil: off, zero
	// overhead beyond nil checks). Results are bit-identical either way.
	Telemetry *TelemetryOptions
}

// Run executes a wave-propagation (AWM) or dynamic-rupture (DFR) scenario.
func Run(q Model, sc Scenario) (*Result, error) {
	if sc.Dt < 0 {
		return nil, fmt.Errorf("awp: Dt must be positive, or zero for automatic; got %g", sc.Dt)
	}
	if sc.SpongeWidth <= 0 {
		sc.SpongeWidth = 8
	}
	topo := mpi.NewCart(1, 1, 1)
	if sc.Ranks > 1 {
		if sc.Fault != nil {
			// DFR mode keeps the fault plane on one rank in y.
			topo = faultTopo(sc.Dims, sc.Ranks)
		} else {
			topo = bestTopo(sc.Dims, sc.Ranks)
		}
	}
	variant, blocking, tdepth, err := resolveKernel(sc, topo)
	if err != nil {
		return nil, err
	}
	opt := solver.Options{
		Global:        sc.Dims,
		H:             sc.H,
		Dt:            sc.Dt,
		CFL:           sc.CFL,
		Steps:         sc.Steps,
		Topo:          topo,
		Comm:          sc.Comm,
		Threads:       sc.Threads,
		CopyHalo:      sc.CopyHalo,
		CoalesceHalo:  sc.CoalesceHalo,
		Variant:       variant,
		Blocking:      blocking,
		TemporalDepth: tdepth,
		ABC:           sc.ABC,
		SpongeWidth:   sc.SpongeWidth,
		FreeSurface:   sc.FreeSurface,
		Attenuation:   sc.Attenuation,
		Sources:       sc.Sources,
		Fault:         sc.Fault,
		Receivers:     sc.Receivers,
		TrackPGV:      sc.TrackPGV,
		Telemetry:     sc.Telemetry,
		LTS: solver.LTSOptions{
			Enabled:      sc.LTS,
			MaxK:         sc.LTSMaxK,
			MaxRateRatio: sc.LTSMaxRateRatio,
			WorkBalance:  true,
		},
	}
	return solver.Run(q, opt)
}

// resolveKernel maps Scenario.Variant/JBlock/KBlock/TemporalDepth onto the
// solver's kernel configuration. "auto" runs the tuner micro-benchmark on the
// rank-0 subgrid shape — representative of every rank, since the
// decomposition splits near-evenly — and any explicit JBlock/KBlock or
// TemporalDepth still wins over the tuned values.
func resolveKernel(sc Scenario, topo mpi.Cart) (fd.Variant, fd.Blocking, int, error) {
	variant, blocking, tdepth := fd.Blocked, fd.DefaultBlocking, 1
	switch sc.Variant {
	case "":
	case "auto":
		dc, err := decomp.New(sc.Dims, topo)
		if err != nil {
			return 0, fd.Blocking{}, 0, fmt.Errorf("awp: %w", err)
		}
		threads := sc.Threads
		if threads <= 0 {
			threads = 1
		}
		choice, _, err := tuner.AutotuneKernels(tuner.AutotuneOptions{
			Dims:        dc.SubFor(0).Local,
			Threads:     threads,
			Attenuation: sc.Attenuation,
			LTS:         sc.LTS,
			CachePath:   sc.TunerCachePath,
		})
		if err != nil {
			return 0, fd.Blocking{}, 0, fmt.Errorf("awp: kernel autotune: %w", err)
		}
		variant, blocking, tdepth = choice.Variant, choice.Blocking, choice.TemporalDepth
	default:
		v, err := fd.ParseVariant(sc.Variant)
		if err != nil {
			return 0, fd.Blocking{}, 0, fmt.Errorf("awp: %w", err)
		}
		variant = v
	}
	if sc.JBlock > 0 {
		blocking.JBlock = sc.JBlock
	}
	if sc.KBlock > 0 {
		blocking.KBlock = sc.KBlock
	}
	if sc.TemporalDepth > 0 {
		tdepth = sc.TemporalDepth
	}
	// LTS replaces super-stepping: a tuned depth > 1 silently falls back
	// to 1 (an explicit TemporalDepth > 1 is left to error in the solver,
	// since the user asked for two conflicting schemes).
	if sc.LTS && sc.TemporalDepth <= 0 {
		tdepth = 1
	}
	if tdepth > 1 && !temporalDepthOK(sc, topo) {
		tdepth = 1
	}
	return variant, blocking, tdepth, nil
}

// temporalDepthOK reports whether the time-tiled engine covers the scenario:
// it supports the sponge/no-ABC boundaries and the blocking comm models, but
// not M-PML, communication-computation overlap, dynamic rupture, or subgrids
// shallower than the deep halo.
func temporalDepthOK(sc Scenario, topo mpi.Cart) bool {
	if sc.ABC == MPMLABC || sc.Comm == AsyncOverlap || sc.Fault != nil {
		return false
	}
	T := sc.TemporalDepth
	if T <= 0 {
		T = fd.MaxTemporalDepth
	}
	parts := [3]int{topo.PX, topo.PY, topo.PZ}
	dims := [3]int{sc.Dims.NX, sc.Dims.NY, sc.Dims.NZ}
	for ax := 0; ax < 3; ax++ {
		if parts[ax] > 1 && dims[ax]/parts[ax] < 4*T {
			return false
		}
	}
	return true
}

// SoCalModel returns the synthetic southern-California velocity model
// (CVM4 stand-in) spanning lx x ly x lz meters with the given Vs floor.
func SoCalModel(lx, ly, lz, minVs float64) Model {
	return cvm.SoCal(lx, ly, lz, minVs)
}

// LayeredModel returns the generic hard-rock layered model (CVM-H
// stand-in).
func LayeredModel() Model { return cvm.HardRock() }

// HomogeneousModel returns a uniform medium.
func HomogeneousModel(m Material) Model { return cvm.Homogeneous(m) }

// PointMomentSource builds a single sub-fault strike-slip point source of
// moment m0 (N*m) at global node (i, j, k) with a Gaussian moment-rate
// pulse centred at t0 with width sigma, sampled finely enough for any
// stable dt.
func PointMomentSource(i, j, k int, m0, t0, sigma float64) []source.SampledSource {
	dt := sigma / 20
	nt := int((t0+6*sigma)/dt) + 1
	ps := source.PointSource{
		GI: i, GJ: j, GK: k, M0: m0,
		Tensor: source.StrikeSlipXY,
		STF:    source.GaussianPulse(t0, sigma),
	}
	return []source.SampledSource{ps.Sample(dt, nt)}
}

// ExplosionSource is PointMomentSource with an isotropic tensor.
func ExplosionSource(i, j, k int, m0, t0, sigma float64) []source.SampledSource {
	dt := sigma / 20
	nt := int((t0+6*sigma)/dt) + 1
	ps := source.PointSource{
		GI: i, GJ: j, GK: k, M0: m0,
		Tensor: source.Explosion,
		STF:    source.GaussianPulse(t0, sigma),
	}
	return []source.SampledSource{ps.Sample(dt, nt)}
}

// HaskellRupture generates a kinematic finite-fault source (dSrcG).
type HaskellRupture = source.HaskellSpec

// M8FaultSpec builds a DFR fault specification with the paper's M8 initial
// stress recipe (§VII.A): depth-dependent normal stress, Von Kármán random
// shear stress, velocity strengthening near the surface, Dc taper, and a
// circular nucleation patch.
func M8FaultSpec(j0, i0, i1, k0, k1 int, h float64, nucI, nucK, nucRadius int, seed int64) *FaultSpec {
	spec := rupture.M8StressSpec(i1-i0, k1-k0, h)
	spec.Seed = seed
	tau, sn, fr := spec.Build()
	rupture.Nucleate(tau, sn, fr, nucI-i0, nucK-k0, nucRadius, 0.01)
	return &FaultSpec{
		J0: j0, I0: i0, I1: i1, K0: k0, K1: k1,
		Tau0: tau, SigmaN: sn, Friction: fr,
		RecordEvery: 2,
	}
}

// BooreAtkinson2008 and CampbellBozorgnia2008 are the Fig 23 NGA curves.
func BooreAtkinson2008() GMPE     { return analysis.BooreAtkinson2008{} }
func CampbellBozorgnia2008() GMPE { return analysis.CampbellBozorgnia2008{} }

// PGVH returns the peak RSS horizontal velocity of a seismogram.
func PGVH(s Seismogram) float64 { return analysis.PGVHFromSeries(s) }

// GeomMeanPGV returns the NGA-style geometric-mean horizontal peak.
func GeomMeanPGV(s Seismogram) float64 { return analysis.GeomMeanPGV(s) }

// bestTopo wraps the decomposition heuristic.
func bestTopo(g Dims, ranks int) mpi.Cart {
	return topoSearch(g, ranks, false)
}

// faultTopo constrains PY=1 for DFR mode.
func faultTopo(g Dims, ranks int) mpi.Cart {
	return topoSearch(g, ranks, true)
}

func topoSearch(g Dims, ranks int, py1 bool) mpi.Cart {
	best := mpi.NewCart(1, 1, 1)
	bestCost := -1.0
	for px := 1; px <= ranks; px++ {
		if ranks%px != 0 {
			continue
		}
		rem := ranks / px
		for py := 1; py <= rem; py++ {
			if rem%py != 0 || (py1 && py != 1) {
				continue
			}
			pz := rem / py
			if px*4 > g.NX || py*4 > g.NY || pz*4 > g.NZ {
				continue
			}
			cost := float64(px-1)*float64(g.NY*g.NZ) +
				float64(py-1)*float64(g.NX*g.NZ) +
				float64(pz-1)*float64(g.NX*g.NY)
			if bestCost < 0 || cost < bestCost {
				bestCost = cost
				best = mpi.NewCart(px, py, pz)
			}
		}
	}
	return best
}
