package tuner

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core/fd"
	"repro/internal/grid"
)

// The profile must round-trip: the first call benchmarks and writes, the
// second call for the same key returns the cached winner without invoking
// the benchmark at all.
func TestAutotuneRoundTrip(t *testing.T) {
	cache := filepath.Join(t.TempDir(), "profile.json")
	calls := 0
	opt := AutotuneOptions{
		Dims:      grid.Dims{NX: 96, NY: 80, NZ: 64},
		Threads:   4,
		CachePath: cache,
		benchFn: func(blk fd.Blocking, tdepth int) float64 {
			calls++
			// Craft a clear winner: {16,16} at depth 2.
			cost := 5.0
			if blk.JBlock == 16 && blk.KBlock == 16 {
				cost = 2.0
				if tdepth == 2 {
					cost = 1.0
				}
			}
			return cost
		},
	}
	choice, samples, err := AutotuneKernels(opt)
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("benchmark never invoked on cold cache")
	}
	if choice.FromCache {
		t.Fatal("cold-cache choice reported FromCache")
	}
	if choice.Variant != fd.Fused || choice.Blocking.JBlock != 16 ||
		choice.Blocking.KBlock != 16 || choice.TemporalDepth != 2 {
		t.Fatalf("wrong winner: %v %+v depth %d", choice.Variant, choice.Blocking, choice.TemporalDepth)
	}
	if len(samples) != len(autotuneCandidates(false, false)) {
		t.Fatalf("expected %d samples, got %d", len(autotuneCandidates(false, false)), len(samples))
	}

	calls = 0
	cached, samples2, err := AutotuneKernels(opt)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("benchmark re-invoked %d times despite cached profile", calls)
	}
	if !cached.FromCache {
		t.Fatal("warm-cache choice not reported FromCache")
	}
	if cached.Variant != choice.Variant || cached.Blocking != choice.Blocking ||
		cached.TemporalDepth != choice.TemporalDepth || cached.NsPerCell != choice.NsPerCell {
		t.Fatalf("cached choice %+v differs from original %+v", cached, choice)
	}
	if len(samples2) != len(samples) {
		t.Fatalf("cached samples %d != original %d", len(samples2), len(samples))
	}
}

// Different dims / threads / attenuation must key separate profile entries.
func TestAutotuneKeySeparation(t *testing.T) {
	cache := filepath.Join(t.TempDir(), "profile.json")
	calls := 0
	mk := func(d grid.Dims, threads int, atten bool) AutotuneOptions {
		return AutotuneOptions{
			Dims: d, Threads: threads, Attenuation: atten, CachePath: cache,
			benchFn: func(fd.Blocking, int) float64 { calls++; return 1 },
		}
	}
	base := grid.Dims{NX: 32, NY: 32, NZ: 32}
	for _, o := range []AutotuneOptions{
		mk(base, 1, false),
		mk(grid.Dims{NX: 64, NY: 32, NZ: 32}, 1, false), // different shape
		mk(base, 2, false), // different threads
		mk(base, 1, true),  // attenuation on
	} {
		before := calls
		if _, _, err := AutotuneKernels(o); err != nil {
			t.Fatal(err)
		}
		if calls == before {
			t.Fatalf("options %+v hit a cache entry it should not share", o)
		}
	}
	// And each re-read hits its own entry.
	before := calls
	if _, _, err := AutotuneKernels(mk(base, 1, true)); err != nil {
		t.Fatal(err)
	}
	if calls != before {
		t.Fatal("repeat lookup re-benchmarked")
	}
}

// A corrupt profile is a cache miss, not an error.
func TestAutotuneCorruptProfile(t *testing.T) {
	cache := filepath.Join(t.TempDir(), "profile.json")
	if err := os.WriteFile(cache, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	calls := 0
	opt := AutotuneOptions{
		Dims: grid.Dims{NX: 16, NY: 16, NZ: 16}, Threads: 1, CachePath: cache,
		benchFn: func(fd.Blocking, int) float64 { calls++; return 1 },
	}
	if _, _, err := AutotuneKernels(opt); err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("corrupt profile treated as a hit")
	}
	// The rewrite must leave valid JSON behind.
	data, err := os.ReadFile(cache)
	if err != nil {
		t.Fatal(err)
	}
	var p kernelProfile
	if err := json.Unmarshal(data, &p); err != nil {
		t.Fatalf("profile not rewritten as valid JSON: %v", err)
	}
	if len(p.Entries) != 1 {
		t.Fatalf("expected 1 entry after rewrite, got %d", len(p.Entries))
	}
}

// End-to-end with the real micro-benchmark on a tiny grid: the sweep must
// complete, return a valid ladder variant, and persist a parseable profile.
func TestAutotuneEndToEndQuick(t *testing.T) {
	cache := filepath.Join(t.TempDir(), "profile.json")
	opt := AutotuneOptions{
		Dims:        grid.Dims{NX: 16, NY: 12, NZ: 10},
		Threads:     2,
		Attenuation: true,
		CachePath:   cache,
		Quick:       true,
	}
	choice, samples, err := AutotuneKernels(opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := choice.Variant.Validate(); err != nil {
		t.Fatalf("winner has invalid variant: %v", err)
	}
	if choice.NsPerCell <= 0 {
		t.Fatalf("non-positive measurement: %g", choice.NsPerCell)
	}
	if len(samples) != len(autotuneCandidates(true, false)) {
		t.Fatalf("expected %d quick samples, got %d", len(autotuneCandidates(true, false)), len(samples))
	}
	for _, s := range samples {
		if s.NsPerCell <= 0 {
			t.Fatalf("sample %+v has non-positive timing", s)
		}
	}
	if _, err := os.Stat(cache); err != nil {
		t.Fatalf("profile not written: %v", err)
	}
	// Warm call must not re-run kernels (FromCache observable).
	again, _, err := AutotuneKernels(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !again.FromCache {
		t.Fatal("second end-to-end call did not hit the cache")
	}
}

func TestDefaultProfilePath(t *testing.T) {
	p, err := DefaultProfilePath()
	if err != nil {
		t.Skipf("no user cache dir in this environment: %v", err)
	}
	if filepath.Base(p) != "kernel-profile.json" {
		t.Fatalf("unexpected profile path %q", p)
	}
}

// A profile with an unknown format version — older (including the
// implicit 0 of pre-versioning files) or newer — is a cache miss, and the
// rewrite stamps the current version.
func TestAutotuneProfileVersionMismatch(t *testing.T) {
	cache := filepath.Join(t.TempDir(), "profile.json")
	calls := 0
	opt := AutotuneOptions{
		Dims: grid.Dims{NX: 16, NY: 16, NZ: 16}, Threads: 1, CachePath: cache,
		benchFn: func(fd.Blocking, int) float64 { calls++; return 1 },
	}
	if _, _, err := AutotuneKernels(opt); err != nil {
		t.Fatal(err)
	}
	for _, version := range []int{0, profileVersion - 1, profileVersion + 1} {
		data, err := os.ReadFile(cache)
		if err != nil {
			t.Fatal(err)
		}
		var p kernelProfile
		if err := json.Unmarshal(data, &p); err != nil {
			t.Fatal(err)
		}
		if p.Version != profileVersion {
			t.Fatalf("saved profile has version %d, want %d", p.Version, profileVersion)
		}
		p.Version = version
		forged, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cache, forged, 0o644); err != nil {
			t.Fatal(err)
		}
		before := calls
		if _, _, err := AutotuneKernels(opt); err != nil {
			t.Fatal(err)
		}
		if calls == before {
			t.Fatalf("profile version %d treated as a hit", version)
		}
	}
	// After the rewrites the current version must hit again.
	before := calls
	if _, _, err := AutotuneKernels(opt); err != nil {
		t.Fatal(err)
	}
	if calls != before {
		t.Fatal("rewritten current-version profile missed")
	}
}

// TestAutotuneLTSKeySeparation pins the LTS cache discipline: an LTS run
// never reuses a classic run's cached winner (whose depth may exceed 1),
// its candidate sweep is depth-1 only, and its winner is cached under a
// separate key so the classic entry survives.
func TestAutotuneLTSKeySeparation(t *testing.T) {
	cache := filepath.Join(t.TempDir(), "profile.json")
	calls := 0
	opt := AutotuneOptions{
		Dims:      grid.Dims{NX: 64, NY: 48, NZ: 32},
		Threads:   2,
		CachePath: cache,
		benchFn: func(blk fd.Blocking, tdepth int) float64 {
			calls++
			if tdepth > 1 {
				return 1.0 // classic tuning prefers depth > 1
			}
			return 2.0
		},
	}
	classic, _, err := AutotuneKernels(opt)
	if err != nil {
		t.Fatal(err)
	}
	if classic.TemporalDepth <= 1 {
		t.Fatalf("classic winner depth %d, expected > 1", classic.TemporalDepth)
	}

	calls = 0
	opt.LTS = true
	lts, samples, err := AutotuneKernels(opt)
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("LTS run reused the classic cache entry")
	}
	if lts.TemporalDepth != 1 {
		t.Fatalf("LTS winner depth %d, want 1", lts.TemporalDepth)
	}
	for _, s := range samples {
		if s.TDepth != 1 {
			t.Fatalf("LTS sweep benchmarked depth %d", s.TDepth)
		}
	}

	// Both entries must coexist in the profile.
	calls = 0
	if again, _, err := AutotuneKernels(opt); err != nil || calls != 0 || !again.FromCache {
		t.Fatalf("LTS entry not cached (err %v, calls %d)", err, calls)
	}
	opt.LTS = false
	if again, _, err := AutotuneKernels(opt); err != nil || calls != 0 || !again.FromCache {
		t.Fatalf("classic entry lost after LTS tuning (err %v, calls %d)", err, calls)
	}
	if again, _, _ := AutotuneKernels(opt); again.TemporalDepth != classic.TemporalDepth {
		t.Fatalf("classic cached depth changed to %d", again.TemporalDepth)
	}
}
