package attenuation

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core/fd"
	"repro/internal/core/sched"
	"repro/internal/cvm"
	"repro/internal/grid"
)

// fillStateSeeded deterministically fills all nine wavefields (including
// ghosts) with heterogeneous values.
func fillStateSeeded(d grid.Dims, seed int64) *fd.State {
	s := fd.NewState(d)
	rng := rand.New(rand.NewSource(seed))
	for _, f := range s.Fields() {
		data := f.Data()
		for n := range data {
			data[n] = (rng.Float32() - 0.5) * 1e-2
		}
	}
	return s
}

// expectStatesEqual asserts exact (bitwise) equality of all nine wavefields.
func expectStatesEqual(t *testing.T, got, want *fd.State, label string) {
	t.Helper()
	wf := want.Fields()
	for fi, f := range got.Fields() {
		a, b := f.Data(), wf[fi].Data()
		for n := range a {
			if a[n] != b[n] {
				t.Fatalf("%s: field %s idx %d: %g != %g", label, fd.FieldNames[fi], n, a[n], b[n])
			}
		}
	}
}

// expectMemVarsEqual asserts exact equality of all six memory variables.
func expectMemVarsEqual(t *testing.T, got, want *Model, label string) {
	t.Helper()
	gz := []*grid.Field3{got.ZXX, got.ZYY, got.ZZZ, got.ZXY, got.ZXZ, got.ZYZ}
	wz := []*grid.Field3{want.ZXX, want.ZYY, want.ZZZ, want.ZXY, want.ZXZ, want.ZYZ}
	names := []string{"ZXX", "ZYY", "ZZZ", "ZXY", "ZXZ", "ZYZ"}
	for zi := range gz {
		a, b := gz[zi].Data(), wz[zi].Data()
		for n := range a {
			if a[n] != b[n] {
				t.Fatalf("%s: memvar %s idx %d: %g != %g", label, names[zi], n, a[n], b[n])
			}
		}
	}
}

// FusedStress must be bit-identical to the two-pass whole-array reference
// (fd.Naive stress update, then the per-point Apply oracle) over multiple
// steps, including with a nonzero coarse-graining origin (as
// a decomposed rank sees) and a heterogeneous Q model.
func TestFusedStressBitIdenticalMultiStep(t *testing.T) {
	d := grid.Dims{NX: 14, NY: 13, NZ: 11}
	m := makeMedium(t, cvm.SoCal(1400, 1300, 1100, 400), d, 100)
	dt := m.StableDt(0.5)
	box := fd.FullBox(d)

	sRef := fillStateSeeded(d, 7)
	sFus := sRef.Clone()
	aRef := New(m, DefaultBand, dt)
	aFus := New(m, DefaultBand, dt)
	aRef.Origin = [3]int{3, 5, 7}
	aFus.Origin = aRef.Origin

	for step := 0; step < 4; step++ {
		fd.UpdateVelocity(sRef, m, dt, box, fd.Naive, fd.Blocking{})
		fd.UpdateStress(sRef, m, dt, box, fd.Naive, fd.Blocking{})
		aRef.applyOracle(sRef, m, dt, box)

		fd.UpdateVelocity(sFus, m, dt, box, fd.Fused, fd.Blocking{})
		aFus.FusedStress(sFus, m, dt, box)
	}
	expectStatesEqual(t, sFus, sRef, "multi-step")
	expectMemVarsEqual(t, aFus, aRef, "multi-step")
}

// Sub-boxes at odd offsets exercise the row parity tables against the
// per-point mechAt reference.
func TestFusedStressSubBoxParity(t *testing.T) {
	d := grid.Dims{NX: 12, NY: 10, NZ: 9}
	m := makeMedium(t, cvm.SoCal(1200, 1000, 900, 400), d, 100)
	dt := m.StableDt(0.5)
	boxes := []fd.Box{
		{I0: 3, I1: 10, J0: 1, J1: 8, K0: 2, K1: 7},
		{I0: 2, I1: 3, J0: 5, J1: 6, K0: 3, K1: 4},  // single point
		{I0: 0, I1: 12, J0: 7, J1: 8, K0: 0, K1: 9}, // single j-plane
	}
	for bi, box := range boxes {
		for _, origin := range [][3]int{{0, 0, 0}, {1, 0, 1}, {5, 9, 2}} {
			sRef := fillStateSeeded(d, int64(100+bi))
			sFus := sRef.Clone()
			aRef := New(m, DefaultBand, dt)
			aFus := New(m, DefaultBand, dt)
			aRef.Origin = origin
			aFus.Origin = origin

			fd.UpdateStress(sRef, m, dt, box, fd.Naive, fd.Blocking{})
			aRef.applyOracle(sRef, m, dt, box)
			aFus.FusedStress(sFus, m, dt, box)

			expectStatesEqual(t, sFus, sRef, "sub-box")
			expectMemVarsEqual(t, aFus, aRef, "sub-box")
		}
	}
}

func TestFusedStressTiledBitIdentical(t *testing.T) {
	d := grid.Dims{NX: 14, NY: 17, NZ: 19}
	m := makeMedium(t, cvm.SoCal(1400, 1700, 1900, 400), d, 100)
	dt := m.StableDt(0.5)
	box := fd.FullBox(d)

	sRef := fillStateSeeded(d, 11)
	aRef := New(m, DefaultBand, dt)
	fd.UpdateStress(sRef, m, dt, box, fd.Naive, fd.Blocking{})
	aRef.applyOracle(sRef, m, dt, box)

	for _, threads := range []int{1, 3, 8} {
		p := sched.NewPool(threads)
		s := fillStateSeeded(d, 11)
		a := New(m, DefaultBand, dt)
		a.FusedStressTiled(s, m, dt, box, fd.Blocking{JBlock: 4, KBlock: 4}, p)
		p.Close()
		expectStatesEqual(t, s, sRef, "tiled")
		expectMemVarsEqual(t, a, aRef, "tiled")
	}
}

func TestFusedStressDtMismatchPanics(t *testing.T) {
	d := grid.Dims{NX: 4, NY: 4, NZ: 4}
	m := makeMedium(t, cvm.Homogeneous(cvm.Material{Vp: 6000, Vs: 3464, Rho: 2700}), d, 100)
	a := New(m, DefaultBand, 1e-3)
	s := fd.NewState(d)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.FusedStress(s, m, 2e-3, fd.FullBox(d))
}

// FuzzFusedStressMatchesTwoPass drives the fused kernel with random Q
// scatter (including Q<=0 points), random coarse-graining cell phase, and
// random box offsets, asserting exact equality against the two-pass
// reference on all wavefields and memory variables. Qp is drawn
// independently of Qs, as Qs*U[0.5, 3]: with vp/vs = sqrt(3) the lambda
// deficit DLam is positive only where Qp < 1.5*Qs (Qp = 2*Qs clamps it to
// 0), so about a fifth of the lossy points drive the trace/DLam terms.
func FuzzFusedStressMatchesTwoPass(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint8(1), uint8(3), uint8(2), uint8(3), uint8(1), uint8(2))
	f.Add(int64(3), uint8(255), uint8(254), uint8(253), uint8(7), uint8(5), uint8(4))
	// The whole box, odd origin: many points with Qp < 2*Qs and DLam > 0.
	f.Add(int64(4), uint8(1), uint8(0), uint8(1), uint8(0), uint8(0), uint8(0))
	d := grid.Dims{NX: 10, NY: 9, NZ: 8}

	f.Fuzz(func(t *testing.T, seed int64, ox, oy, oz, i0, j0, k0 uint8) {
		m := makeMedium(t, cvm.Homogeneous(cvm.Material{Vp: 6000, Vs: 3464, Rho: 2700}), d, 100)
		// Random per-point Q scatter, with ~1/8 of points lossless.
		rng := rand.New(rand.NewSource(seed))
		qpd, qsd := m.QP.Data(), m.QS.Data()
		for n := range qpd {
			qs := rng.Float64() * 200
			if rng.Intn(8) == 0 {
				qs = 0
			}
			qsd[n] = float32(qs)
			qpd[n] = float32(qs * (0.5 + 2.5*rng.Float64()))
		}
		dt := m.StableDt(0.5)
		box := fd.Box{
			I0: int(i0) % d.NX, I1: d.NX,
			J0: int(j0) % d.NY, J1: d.NY,
			K0: int(k0) % d.NZ, K1: d.NZ,
		}
		origin := [3]int{int(ox), int(oy), int(oz)}

		sRef := fillStateSeeded(d, seed)
		sFus := sRef.Clone()
		aRef := New(m, DefaultBand, dt)
		aFus := New(m, DefaultBand, dt)
		aRef.Origin = origin
		aFus.Origin = origin
		if !slices.ContainsFunc(aRef.DLam.Data(), func(v float32) bool { return v > 0 }) {
			t.Fatal("DLam is 0 everywhere: the trace/DLam terms go unchecked")
		}

		fd.UpdateStress(sRef, m, dt, box, fd.Naive, fd.Blocking{})
		aRef.applyOracle(sRef, m, dt, box)
		aFus.FusedStress(sFus, m, dt, box)

		expectStatesEqual(t, sFus, sRef, "fuzz")
		expectMemVarsEqual(t, aFus, aRef, "fuzz")
	})
}
