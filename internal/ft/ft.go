// Package ft implements the application-level fault-tolerance harness of
// §III.F: periodic checkpointing against injected failures, with the
// recovery semantics the paper describes — a failed step costs the work
// since the last checkpoint, the run resumes from saved state, and the
// recovered result is identical to a failure-free run. The
// continue-on-failure direction of Chen & Dongarra [11] (non-failing
// processes keep running while the environment adapts) is modeled by the
// harness's bounded rollback: only the failed interval is recomputed.
package ft

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/checkpoint"
	"repro/internal/core/attenuation"
	"repro/internal/core/fd"
	"repro/internal/medium"
	"repro/internal/pfs"
)

// StepFunc advances the wavefield by one step (the solver body).
type StepFunc func(s *fd.State, step int)

// FailureInjector reports whether a failure strikes at the given step.
type FailureInjector func(step int) bool

// NoFailures never fails.
func NoFailures(int) bool { return false }

// RandomFailures fails each step with probability p (deterministic
// seed). The injector is goroutine-safe: the multi-rank harness may call
// one shared injector from every rank, and the underlying rand.Rand is
// not safe for concurrent use without the lock.
func RandomFailures(p float64, seed int64) FailureInjector {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(seed))
	return func(int) bool {
		mu.Lock()
		defer mu.Unlock()
		return rng.Float64() < p
	}
}

// FailAt fails exactly once at the given step (it does not re-fire when
// the harness replays the step after recovery). Goroutine-safe: exactly
// one caller observes the failure even if several ranks probe the same
// step concurrently.
func FailAt(step int) FailureInjector {
	var fired atomic.Bool
	return func(s int) bool {
		return s == step && fired.CompareAndSwap(false, true)
	}
}

// Harness drives a checkpointed run with failure injection.
type Harness struct {
	FS              *pfs.FS
	Dir             string
	Rank            int
	CheckpointEvery int

	// Stats.
	Failures      int
	Checkpoints   int
	StepsExecuted int // includes recomputed steps
	RolledBack    int // total steps recomputed
}

// Run advances the state through nsteps, checkpointing every
// CheckpointEvery steps and recovering from the most recent checkpoint
// when inject fires. atten may be nil. It returns an error only if
// recovery itself is impossible (no checkpoint yet and the initial state
// cannot be reconstructed — the harness seeds a step-0 checkpoint to make
// that impossible).
func (h *Harness) Run(s *fd.State, atten *attenuation.Model, m *medium.Medium,
	nsteps int, step StepFunc, inject FailureInjector) error {
	if h.CheckpointEvery <= 0 {
		return fmt.Errorf("ft: CheckpointEvery must be positive")
	}
	// Seed checkpoint at step 0: recovery is always possible.
	if _, err := checkpoint.Save(h.FS, h.Dir, h.Rank, 0, s, atten, nil); err != nil {
		return fmt.Errorf("ft: seed checkpoint: %w", err)
	}
	h.Checkpoints++
	last := 0
	n := 0
	_ = m
	for n < nsteps {
		if inject(n) {
			// Failure: the in-memory state is lost; roll back.
			h.Failures++
			if err := checkpoint.Load(h.FS, h.Dir, h.Rank, last, s, atten, nil); err != nil {
				return fmt.Errorf("ft: recovery failed: %w", err)
			}
			h.RolledBack += n - last
			n = last
			continue
		}
		step(s, n)
		h.StepsExecuted++
		n++
		if n%h.CheckpointEvery == 0 && n < nsteps {
			if _, err := checkpoint.Save(h.FS, h.Dir, h.Rank, n, s, atten, nil); err == nil {
				// A failed save is survivable: recovery just rolls back to
				// the previous checkpoint instead.
				h.Checkpoints++
				last = n
			}
		}
	}
	return nil
}

// Overhead returns the fraction of executed steps that were recomputation
// (the cost of the failures under this checkpoint interval).
func (h *Harness) Overhead() float64 {
	if h.StepsExecuted == 0 {
		return 0
	}
	return float64(h.RolledBack) / float64(h.StepsExecuted)
}

// OptimalInterval returns Young's approximation of the checkpoint interval
// (in steps) that minimizes expected lost work: sqrt(2 * C * MTBF), with C
// the checkpoint cost and MTBF the mean steps between failures.
func OptimalInterval(checkpointCostSteps, mtbfSteps float64) int {
	if checkpointCostSteps <= 0 || mtbfSteps <= 0 {
		return 1
	}
	n := int(math.Sqrt(2 * checkpointCostSteps * mtbfSteps))
	if n < 1 {
		n = 1
	}
	return n
}
