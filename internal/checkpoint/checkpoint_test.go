package checkpoint

import (
	"testing"

	"repro/internal/core/attenuation"
	"repro/internal/core/fd"
	"repro/internal/cvm"
	"repro/internal/decomp"
	"repro/internal/grid"
	"repro/internal/medium"
	"repro/internal/mpi"
	"repro/internal/pfs"
)

func testFS() *pfs.FS {
	return pfs.New(pfs.Config{OSTs: 8, OSTBandwidth: 1e8, MDSLatency: 1e-3, MDSConcurrent: 4})
}

func makeMedium(t testing.TB, d grid.Dims) *medium.Medium {
	t.Helper()
	dc, err := decomp.New(d, mpi.NewCart(1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	return medium.FromCVM(cvm.Homogeneous(cvm.Material{Vp: 6000, Vs: 3464, Rho: 2700}), dc, dc.SubFor(0), 100)
}

func step(s *fd.State, m *medium.Medium, a *attenuation.Model, dt float64) {
	box := fd.FullBox(s.Dims)
	fd.UpdateVelocity(s, m, dt, box, fd.Precomp, fd.Blocking{})
	fd.UpdateStress(s, m, dt, box, fd.Precomp, fd.Blocking{})
	if a != nil {
		a.Apply(s, m, dt, box)
	}
}

// The fundamental checkpoint property: save at step N, continue to 2N,
// then restore at N and re-run to 2N — the wavefields must be identical
// bit for bit.
func TestRestartBitIdentical(t *testing.T) {
	d := grid.Dims{NX: 12, NY: 12, NZ: 12}
	m := makeMedium(t, d)
	dt := m.StableDt(0.5)
	a := attenuation.New(m, attenuation.DefaultBand, dt)
	fsys := testFS()

	s := fd.NewState(d)
	s.VX.Set(6, 6, 6, 1)
	for n := 0; n < 30; n++ {
		step(s, m, a, dt)
	}
	st, err := Save(fsys, "ckpt", 0, 30, s, a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Bytes == 0 {
		t.Fatal("no checkpoint bytes")
	}
	for n := 0; n < 30; n++ {
		step(s, m, a, dt)
	}
	want := s.Clone()

	// Restore into fresh state and recompute.
	s2 := fd.NewState(d)
	a2 := attenuation.New(m, attenuation.DefaultBand, dt)
	if err := Load(fsys, "ckpt", 0, 30, s2, a2, nil); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 30; n++ {
		step(s2, m, a2, dt)
	}
	if diff := s2.L2Diff(want); diff != 0 {
		t.Fatalf("restart differs from uninterrupted run: L2 %g", diff)
	}
}

func TestSaveWithoutAttenuation(t *testing.T) {
	d := grid.Dims{NX: 6, NY: 6, NZ: 6}
	fsys := testFS()
	s := fd.NewState(d)
	s.XY.Set(2, 2, 2, 5)
	if _, err := Save(fsys, "c", 3, 100, s, nil, nil); err != nil {
		t.Fatal(err)
	}
	s2 := fd.NewState(d)
	if err := Load(fsys, "c", 3, 100, s2, nil, nil); err != nil {
		t.Fatal(err)
	}
	if s2.XY.At(2, 2, 2) != 5 {
		t.Fatal("value lost")
	}
}

// Auxiliary arrays (M-PML zone splits) round-trip after the wavefield,
// and a restore into a different aux shape is refused.
func TestAuxArraysRoundTrip(t *testing.T) {
	d := grid.Dims{NX: 6, NY: 6, NZ: 6}
	fsys := testFS()
	s := fd.NewState(d)
	aux := [][]float32{{1, 2, 3}, {4, 5}}
	if _, err := Save(fsys, "c", 0, 8, s, nil, aux); err != nil {
		t.Fatal(err)
	}
	got := [][]float32{make([]float32, 3), make([]float32, 2)}
	if err := Load(fsys, "c", 0, 8, fd.NewState(d), nil, got); err != nil {
		t.Fatal(err)
	}
	for i := range aux {
		for n := range aux[i] {
			if got[i][n] != aux[i][n] {
				t.Fatalf("aux[%d][%d] = %g, want %g", i, n, got[i][n], aux[i][n])
			}
		}
	}
	if err := Load(fsys, "c", 0, 8, fd.NewState(d), nil, nil); err == nil {
		t.Error("checkpoint with aux state loaded without it")
	}
	if err := Load(fsys, "c", 0, 8, fd.NewState(d), nil, [][]float32{make([]float32, 6)}); err == nil {
		t.Error("aux shape mismatch accepted")
	}
}

func TestLoadErrors(t *testing.T) {
	d := grid.Dims{NX: 6, NY: 6, NZ: 6}
	m := makeMedium(t, d)
	fsys := testFS()
	s := fd.NewState(d)
	a := attenuation.New(m, attenuation.DefaultBand, 0.001)

	if err := Load(fsys, "c", 0, 1, s, nil, nil); err == nil {
		t.Error("missing checkpoint loaded")
	}
	if _, err := Save(fsys, "c", 0, 1, s, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := Load(fsys, "c", 0, 2, s, nil, nil); err == nil {
		t.Error("wrong step loaded")
	}
	if err := Load(fsys, "c", 0, 1, s, a, nil); err == nil {
		t.Error("attenuation mismatch accepted")
	}
	s2 := fd.NewState(grid.Dims{NX: 4, NY: 4, NZ: 4})
	if err := Load(fsys, "c", 0, 1, s2, nil, nil); err == nil {
		t.Error("dims mismatch accepted")
	}
}

// Throttled checkpointing must beat the unthrottled metadata storm at
// scale (§IV.E applied to checkpoint files).
func TestThrottledSaveFaster(t *testing.T) {
	fsys := pfs.New(pfs.Config{OSTs: 64, OSTBandwidth: 1e8, MDSLatency: 1e-3, MDSConcurrent: 50})
	nranks := 400
	bytes := 1 << 20
	unthrottled := ThrottledSave(fsys, "a", nranks, bytes, nranks)
	throttled := ThrottledSave(fsys, "b", nranks, bytes, 50)
	if throttled >= unthrottled {
		t.Fatalf("throttling did not help: %g vs %g", throttled, unthrottled)
	}
}
