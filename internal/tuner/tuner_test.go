package tuner

import (
	"testing"

	"repro/internal/core/fd"
	"repro/internal/core/solver"
	"repro/internal/grid"
	"repro/internal/perfmodel"
	"repro/internal/pfs"
)

func baseInputs() Inputs {
	return Inputs{
		Machine: perfmodel.Jaguar,
		FS:      pfs.Jaguar(),
		Global:  grid.Dims{NX: 20250, NY: 10125, NZ: 2125},
		Cores:   223074,
		Steps:   100000,
	}
}

func TestM8ProductionChoices(t *testing.T) {
	cfg := Tune(baseInputs())
	// The v7.2 production configuration.
	if cfg.Comm != solver.AsyncReduced {
		t.Errorf("comm = %v, want async-reduced at 223K cores", cfg.Comm)
	}
	if cfg.ABC != solver.MPMLABC {
		t.Errorf("ABC = %v, want M-PML on smooth media", cfg.ABC)
	}
	if cfg.Variant != fd.Blocked {
		t.Errorf("variant = %v, want blocked at production subgrids", cfg.Variant)
	}
	if cfg.MaxOpenFiles != 650 {
		t.Errorf("open throttle = %d, want the 650-OST policy", cfg.MaxOpenFiles)
	}
	if cfg.AggregateSteps != 20000 {
		t.Errorf("aggregation = %d, want 20000", cfg.AggregateSteps)
	}
	if cfg.CheckpointEvery != 0 {
		t.Errorf("checkpointing enabled on a reliable system")
	}
}

func TestStrongGradientsFallBackToSponge(t *testing.T) {
	in := baseInputs()
	in.MediaGradient = 0.8
	if cfg := Tune(in); cfg.ABC != solver.SpongeABC {
		t.Errorf("ABC = %v, want sponge under strong gradients (§II.D)", cfg.ABC)
	}
}

func TestBGLKeepsSimplerComm(t *testing.T) {
	in := baseInputs()
	in.Machine = perfmodel.BGL
	in.Cores = 16384
	cfg := Tune(in)
	if cfg.Comm != solver.Asynchronous {
		t.Errorf("comm = %v on BG/L at 16K", cfg.Comm)
	}
}

func TestIOModeSwitchesWithScale(t *testing.T) {
	in := baseInputs()
	in.Cores = 4096
	if cfg := Tune(in); cfg.IOMode != PrePartitioned {
		t.Errorf("IO = %v at 4K ranks, want pre-partitioned", cfg.IOMode)
	}
	in.FS.MDSConcurrent = 10 // weak metadata server
	in.Cores = 100000
	if cfg := Tune(in); cfg.IOMode != OnDemandMPIIO {
		t.Errorf("IO = %v with weak MDS at 100K ranks, want on-demand", cfg.IOMode)
	}
	if PrePartitioned.String() == OnDemandMPIIO.String() {
		t.Error("IO mode strings aliased")
	}
}

func TestPureMPIDefaultsToOneThread(t *testing.T) {
	cfg := Tune(baseInputs())
	if cfg.Threads != 1 {
		t.Errorf("Threads = %d with ThreadsPerRank unset, want 1", cfg.Threads)
	}
	if cfg.Comm != solver.AsyncReduced {
		t.Errorf("comm = %v, pure-MPI choice must be unchanged", cfg.Comm)
	}
}

func TestHybridThreadsSelectOverlap(t *testing.T) {
	in := baseInputs()
	in.ThreadsPerRank = 4
	cfg := Tune(in)
	if cfg.Threads != 4 {
		t.Errorf("Threads = %d, want 4", cfg.Threads)
	}
	if cfg.Comm != solver.AsyncOverlap {
		t.Errorf("comm = %v, want overlap when the pool can hide the exchange", cfg.Comm)
	}
}

func TestHybridShrinksTilesForLoadBalance(t *testing.T) {
	in := baseInputs()
	// Small subgrid (~32^3 per rank) with a wide pool: the default 8x16
	// tiles would yield too few work units.
	in.Global = grid.Dims{NX: 256, NY: 256, NZ: 128}
	in.Cores = 256
	in.ThreadsPerRank = 8
	cfg := Tune(in)
	def := fd.DefaultBlocking
	if cfg.Blocking.JBlock > def.JBlock || cfg.Blocking.KBlock > def.KBlock {
		t.Fatalf("blocking %+v grew beyond default %+v", cfg.Blocking, def)
	}
	if cfg.Blocking == def {
		t.Errorf("blocking %+v unchanged; small hybrid subgrids need more tiles than workers", cfg.Blocking)
	}
	if cfg.Blocking.JBlock < 2 || cfg.Blocking.KBlock < 2 {
		t.Errorf("blocking %+v shrank below the floor", cfg.Blocking)
	}
	// Production-size subgrids already yield plenty of tiles: unchanged.
	big := baseInputs()
	big.ThreadsPerRank = 4
	if got := Tune(big).Blocking; got != def {
		t.Errorf("production blocking %+v, want default %+v", got, def)
	}
}

func TestCheckpointIntervalFromMTBF(t *testing.T) {
	in := baseInputs()
	in.FailureMTBF = 5000
	cfg := Tune(in)
	if cfg.CheckpointEvery <= 0 {
		t.Fatal("checkpointing disabled despite failures")
	}
	// Young: sqrt(2*3*5000) ~ 173.
	if cfg.CheckpointEvery < 100 || cfg.CheckpointEvery > 300 {
		t.Errorf("interval = %d, want ~173", cfg.CheckpointEvery)
	}
	// More reliable system -> longer interval.
	in.FailureMTBF = 500000
	if Tune(in).CheckpointEvery <= cfg.CheckpointEvery {
		t.Error("interval not increasing with MTBF")
	}
}

// Message layout: coalescing is enabled whenever per-message latency is
// visible against a phase-aggregate face transfer, and never for runs that
// have no neighbors to message.
func TestCoalesceHaloFollowsLatencyRule(t *testing.T) {
	in := baseInputs()
	in.Global = grid.Dims{NX: 512, NY: 512, NZ: 256}
	in.Cores = 4096 // side ~25: one phase-aggregate face is ~46 KB
	in.Machine.Alpha, in.Machine.Beta = 3e-6, 4e-10
	if cfg := Tune(in); !cfg.CoalesceHalo {
		t.Error("small faces on a latency-bound machine: want coalesced halos")
	}

	in.Cores = 1
	if cfg := Tune(in); cfg.CoalesceHalo {
		t.Error("single-rank run: no messages to coalesce")
	}

	// Huge subgrid faces: one message latency is far below 1% of a
	// phase-aggregate transfer, so the per-field layout is kept.
	in = baseInputs()
	in.Cores = 512 // side ~948: aggregate face ~65 MB
	in.Machine.Alpha, in.Machine.Beta = 3e-6, 7e-10
	if cfg := Tune(in); cfg.CoalesceHalo {
		t.Error("bandwidth-dominated faces: want per-field layout")
	}

	// No bandwidth model at all: the rule cannot price the comparison and
	// must leave the default layout alone.
	in.Machine.Beta = 0
	if cfg := Tune(in); cfg.CoalesceHalo {
		t.Error("beta=0: rule should not fire")
	}
}
