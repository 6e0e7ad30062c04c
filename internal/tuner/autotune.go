package tuner

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core/attenuation"
	"repro/internal/core/fd"
	"repro/internal/core/sched"
	"repro/internal/cvm"
	"repro/internal/decomp"
	"repro/internal/grid"
	"repro/internal/medium"
	"repro/internal/mpi"
)

// The heuristic Tune above encodes the paper's Jaguar-era decision rules;
// the kernel autotuner below replaces the hard-coded {JBlock:8, KBlock:16}
// with a startup micro-benchmark on the actual machine: it sweeps blocking
// factors x temporal depth of the production kernel on a representative
// tile of the per-rank subgrid, picks the fastest, and caches the winner in
// a JSON profile keyed by grid shape + threads + GOMAXPROCS so later runs
// skip the benchmark entirely (awp-run -variant=auto).

// KernelChoice is the autotuned kernel configuration. Variant is always
// the production kernel (fd.Fused) for a fresh sweep; a cached profile
// entry may name any of its precomputed aliases.
type KernelChoice struct {
	Variant  fd.Variant
	Blocking fd.Blocking
	// TemporalDepth is the autotuned super-step length: 1 is classic
	// stepping; T > 1 runs the time-skewed chunk sweep (fd.SuperStepSweep)
	// that keeps each k-chunk cache-resident for T steps.
	TemporalDepth int
	NsPerCell     float64 // measured cost per cell per step of the winner
	FromCache     bool    // true when loaded from the profile without re-benchmarking
}

// KernelSample is one micro-benchmark measurement of the sweep.
type KernelSample struct {
	Variant   string  `json:"variant"`
	JBlock    int     `json:"jblock"`
	KBlock    int     `json:"kblock"`
	TDepth    int     `json:"tdepth"`
	NsPerCell float64 `json:"ns_per_cell"`
}

// AutotuneOptions configures the kernel micro-benchmark.
type AutotuneOptions struct {
	// Dims is the per-rank subgrid shape the run will use; the benchmark
	// runs on a capped-but-representative tile of it and the profile entry
	// is keyed by the full shape.
	Dims grid.Dims
	// Threads is the per-rank worker-pool size the run will use.
	Threads int
	// Attenuation includes the fused memory-variable update in the
	// benchmarked sweep (it nearly doubles the stress phase's streamed
	// bytes, so tuning without it would mis-rank the blockings).
	Attenuation bool
	// LTS marks that the run uses multi-rate local time stepping, which
	// is mutually exclusive with temporal tiling: the candidate sweep is
	// restricted to depth 1 and the profile entry is keyed separately so
	// a depth > 1 winner cached by a classic run never leaks into an LTS
	// run (and vice versa).
	LTS bool
	// CachePath overrides the profile location ("" uses DefaultProfilePath).
	CachePath string
	// Quick restricts the sweep to two blockings and one timed repetition —
	// for smoke tests and CI, not production tuning.
	Quick bool

	// benchFn replaces the micro-benchmark in tests; it returns ns/cell/step
	// for one candidate.
	benchFn func(blk fd.Blocking, tdepth int) float64
}

// profileEntry is the cached winner for one key.
type profileEntry struct {
	Variant   string         `json:"variant"`
	JBlock    int            `json:"jblock"`
	KBlock    int            `json:"kblock"`
	TDepth    int            `json:"tdepth"`
	NsPerCell float64        `json:"ns_per_cell"`
	Samples   []KernelSample `json:"samples,omitempty"`
	CreatedAt string         `json:"created_at,omitempty"`
}

// profileVersion is the on-disk profile format version. Bump it whenever
// the entry schema or the meaning of a key changes (v2 added the temporal
// depth dimension); a profile with any other version — including the
// implicit 0 of pre-versioning files — is treated as a cache miss and
// rewritten, never migrated or trusted.
const profileVersion = 2

// kernelProfile is the on-disk JSON profile: one entry per machine-visible
// configuration key.
type kernelProfile struct {
	Version int                     `json:"version"`
	Entries map[string]profileEntry `json:"entries"`
}

// DefaultProfilePath is the per-user profile location
// (<user-cache-dir>/awp-odc/kernel-profile.json).
func DefaultProfilePath() (string, error) {
	dir, err := os.UserCacheDir()
	if err != nil {
		return "", fmt.Errorf("tuner: no user cache dir: %w", err)
	}
	return filepath.Join(dir, "awp-odc", "kernel-profile.json"), nil
}

// profileKey identifies a tuning configuration: the kernel ranking depends
// on the subgrid shape (cache footprint), the pool size (tile parallelism),
// the machine's scheduling width, whether attenuation rides along, and
// whether the run is LTS (which forbids temporal depth > 1).
func profileKey(d grid.Dims, threads int, atten, lts bool) string {
	a := 0
	if atten {
		a = 1
	}
	key := fmt.Sprintf("%dx%dx%d|t%d|p%d|a%d", d.NX, d.NY, d.NZ, threads, runtime.GOMAXPROCS(0), a)
	if lts {
		key += "|lts"
	}
	return key
}

// autotuneCandidates returns the blocking x temporal-depth sweep of the
// production kernel (every precomputed variant runs it, so a variant axis
// would only re-measure one kernel). The blocking also shapes the pool
// tiles and the temporal chunks.
func autotuneCandidates(quick, lts bool) []KernelChoice {
	blockings := []fd.Blocking{
		{JBlock: 4, KBlock: 8},
		{JBlock: 8, KBlock: 8},
		{JBlock: 8, KBlock: 16}, // the paper's Jaguar tuning
		{JBlock: 16, KBlock: 16},
		{JBlock: 16, KBlock: 32},
		{JBlock: 32, KBlock: 32},
	}
	depths := []int{1, 2, 4}
	if quick {
		blockings = []fd.Blocking{{JBlock: 8, KBlock: 16}, {JBlock: 16, KBlock: 16}}
		depths = []int{1, 2}
	}
	if lts {
		depths = []int{1}
	}
	var out []KernelChoice
	for _, b := range blockings {
		for _, td := range depths {
			out = append(out, KernelChoice{Variant: fd.Fused, Blocking: b, TemporalDepth: td})
		}
	}
	return out
}

// AutotuneKernels returns the fastest kernel configuration for the given
// subgrid, benchmarking at most once per profile key: if the cached profile
// already holds an entry for this shape/threads/GOMAXPROCS, it is returned
// immediately (FromCache=true) and no kernels run. A missing or unreadable
// profile is not an error — the benchmark runs and a fresh profile is
// written; only a failure to produce any measurement is.
func AutotuneKernels(opt AutotuneOptions) (KernelChoice, []KernelSample, error) {
	if opt.Dims.NX <= 0 || opt.Dims.NY <= 0 || opt.Dims.NZ <= 0 {
		return KernelChoice{}, nil, fmt.Errorf("tuner: invalid dims %+v", opt.Dims)
	}
	if opt.Threads <= 0 {
		opt.Threads = 1
	}
	path := opt.CachePath
	if path == "" {
		var err error
		if path, err = DefaultProfilePath(); err != nil {
			return KernelChoice{}, nil, err
		}
	}
	key := profileKey(opt.Dims, opt.Threads, opt.Attenuation, opt.LTS)

	prof := loadProfile(path)
	if e, ok := prof.Entries[key]; ok {
		if v, err := fd.ParseVariant(e.Variant); err == nil && e.TDepth >= 1 {
			return KernelChoice{
				Variant:       v,
				Blocking:      fd.Blocking{JBlock: e.JBlock, KBlock: e.KBlock},
				TemporalDepth: e.TDepth,
				NsPerCell:     e.NsPerCell,
				FromCache:     true,
			}, e.Samples, nil
		}
		// Unknown variant name or invalid depth: re-benchmark.
	}

	bench := opt.benchFn
	if bench == nil {
		bd := benchDims(opt.Dims)
		reps := 3
		if opt.Quick {
			reps = 1
		}
		env, err := newBenchEnv(bd, opt.Threads, opt.Attenuation)
		if err != nil {
			return KernelChoice{}, nil, err
		}
		defer env.close()
		bench = func(blk fd.Blocking, tdepth int) float64 {
			return env.measure(blk, tdepth, reps)
		}
	}

	best := KernelChoice{NsPerCell: math.Inf(1)}
	var samples []KernelSample
	for _, cand := range autotuneCandidates(opt.Quick, opt.LTS) {
		ns := bench(cand.Blocking, cand.TemporalDepth)
		samples = append(samples, KernelSample{
			Variant: cand.Variant.String(),
			JBlock:  cand.Blocking.JBlock, KBlock: cand.Blocking.KBlock,
			TDepth:    cand.TemporalDepth,
			NsPerCell: ns,
		})
		if ns < best.NsPerCell {
			best = cand
			best.NsPerCell = ns
		}
	}
	if math.IsInf(best.NsPerCell, 1) {
		return KernelChoice{}, nil, fmt.Errorf("tuner: no kernel candidate produced a measurement")
	}

	if prof.Entries == nil {
		prof.Entries = map[string]profileEntry{}
	}
	prof.Entries[key] = profileEntry{
		Variant: best.Variant.String(),
		JBlock:  best.Blocking.JBlock, KBlock: best.Blocking.KBlock,
		TDepth:    best.TemporalDepth,
		NsPerCell: best.NsPerCell,
		Samples:   samples,
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
	}
	if err := saveProfile(path, prof); err != nil {
		// A read-only cache dir should not fail the run; the choice is
		// still valid, it just will not be remembered.
		return best, samples, nil
	}
	return best, samples, nil
}

// loadProfile reads the profile, returning an empty one on any error or on
// a format-version mismatch (the profile is a cache, never a source of
// truth; an unknown version — older or newer — is a miss, not an error).
func loadProfile(path string) kernelProfile {
	var p kernelProfile
	data, err := os.ReadFile(path)
	if err != nil {
		return p
	}
	if json.Unmarshal(data, &p) != nil || p.Version != profileVersion {
		return kernelProfile{}
	}
	return p
}

// saveProfile writes the profile atomically (temp file + rename), always
// stamping the current format version.
func saveProfile(path string, p kernelProfile) error {
	p.Version = profileVersion
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".kernel-profile-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// benchDims caps the benchmark tile so tuning stays a startup cost (a few
// hundred ms) even for production subgrids, while keeping the real shape's
// aspect when it is smaller than the cap.
func benchDims(d grid.Dims) grid.Dims {
	cap := func(n int) int {
		if n > 48 {
			return 48
		}
		return n
	}
	return grid.Dims{NX: cap(d.NX), NY: cap(d.NY), NZ: cap(d.NZ)}
}

// benchEnv owns the state reused across candidate measurements.
type benchEnv struct {
	dims  grid.Dims
	med   *medium.Medium
	state *fd.State
	atten *attenuation.Model
	pool  *sched.Pool
	dt    float64
}

func newBenchEnv(d grid.Dims, threads int, useAtten bool) (*benchEnv, error) {
	dc, err := decomp.New(d, mpi.NewCart(1, 1, 1))
	if err != nil {
		return nil, fmt.Errorf("tuner: bench decomp: %w", err)
	}
	m := medium.FromCVM(cvm.Homogeneous(cvm.Material{Vp: 6000, Vs: 3464, Rho: 2700}), dc, dc.SubFor(0), 100)
	env := &benchEnv{dims: d, med: m, state: fd.NewState(d), pool: sched.NewPool(threads)}
	env.dt = m.StableDt(0.5)
	if useAtten {
		env.atten = attenuation.New(m, attenuation.DefaultBand, env.dt)
	}
	// Non-zero field values so the kernels stream realistic data (denormal
	// flushing aside, the timing is value-independent).
	for _, f := range env.state.Fields() {
		data := f.Data()
		for n := range data {
			data[n] = float32(n%251) * 1e-5
		}
	}
	return env, nil
}

func (e *benchEnv) close() { e.pool.Close() }

// measure times the candidate and returns the best ns/cell/step over reps
// timed repetitions (after one warmup). Using the minimum rejects
// scheduler noise — the quantity of interest is the kernel's cost, not
// the machine's worst case. At tdepth 1 a repetition is one full
// velocity+stress(+attenuation) sweep; at tdepth > 1 it is one
// time-skewed super-step (fd.SuperStepSweep) advancing tdepth steps, and
// the measured time is divided by tdepth so depths rank on equal terms.
func (e *benchEnv) measure(blk fd.Blocking, tdepth, reps int) float64 {
	box := fd.FullBox(e.dims)
	velocity := func(b fd.Box) {
		fd.UpdateVelocityTiled(e.state, e.med, e.dt, b, fd.Fused, blk, e.pool)
	}
	stress := func(b fd.Box) {
		if e.atten != nil {
			e.atten.FusedStressTiled(e.state, e.med, e.dt, b, blk, e.pool)
		} else {
			fd.UpdateStressTiled(e.state, e.med, e.dt, b, fd.Fused, blk, e.pool)
		}
	}
	nsteps := 1.0
	var step func()
	if tdepth <= 1 {
		step = func() {
			velocity(box)
			stress(box)
		}
	} else {
		nsteps = float64(tdepth)
		step = func() {
			fd.SuperStepSweep(e.dims, tdepth, blk.KBlock, velocity, stress)
		}
	}
	step() // warmup: page in fields, settle the pool
	cells := float64(box.Cells()) * nsteps
	best := math.Inf(1)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		step()
		if ns := time.Since(t0).Seconds() * 1e9 / cells; ns < best {
			best = ns
		}
	}
	return best
}
