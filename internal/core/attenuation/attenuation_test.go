package attenuation

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core/fd"
	"repro/internal/core/sched"
	"repro/internal/cvm"
	"repro/internal/decomp"
	"repro/internal/grid"
	"repro/internal/medium"
	"repro/internal/mpi"
)

func makeMedium(t testing.TB, q cvm.Querier, d grid.Dims, h float64) *medium.Medium {
	t.Helper()
	dc, err := decomp.New(d, mpi.NewCart(1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	return medium.FromCVM(q, dc, dc.SubFor(0), h)
}

func TestRelaxationTimesSpanBand(t *testing.T) {
	b := Band{FMin: 0.02, FMax: 2.0}
	taus := b.RelaxationTimes()
	if math.Abs(taus[0]-1/(2*math.Pi*b.FMin)) > 1e-9 {
		t.Errorf("tau[0] = %g, want %g", taus[0], 1/(2*math.Pi*b.FMin))
	}
	if math.Abs(taus[NRelax-1]-1/(2*math.Pi*b.FMax)) > 1e-9 {
		t.Errorf("tau[last] = %g, want %g", taus[NRelax-1], 1/(2*math.Pi*b.FMax))
	}
	for m := 1; m < NRelax; m++ {
		if taus[m] >= taus[m-1] {
			t.Fatalf("taus not descending at %d", m)
		}
	}
}

func TestBandValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for inverted band")
		}
	}()
	Band{FMin: 2, FMax: 1}.RelaxationTimes()
}

func TestMechanismDistributionCoversAll(t *testing.T) {
	seen := map[int]bool{}
	for k := 0; k < 2; k++ {
		for j := 0; j < 2; j++ {
			for i := 0; i < 2; i++ {
				seen[mechAt(i, j, k)] = true
			}
		}
	}
	if len(seen) != NRelax {
		t.Fatalf("2x2x2 cell uses %d mechanisms, want %d", len(seen), NRelax)
	}
	// Translation invariance with period 2.
	if mechAt(3, 5, 7) != mechAt(1, 1, 1) || mechAt(4, 6, 8) != mechAt(0, 0, 0) {
		t.Fatal("mechanism assignment not 2-periodic")
	}
	// The kernels' per-row table selects the same mechanism as mechAt.
	d := grid.Dims{NX: 4, NY: 4, NZ: 4}
	a := New(makeMedium(t, cvm.Homogeneous(cvm.Material{Vp: 6000, Vs: 3464, Rho: 2700}), d, 100), DefaultBand, 1e-3)
	a.Origin = [3]int{1, 2, 5}
	for k := 0; k < 2; k++ {
		for j := 0; j < 2; j++ {
			am, cm := a.rowMech(j, k)
			for i := 0; i < 2; i++ {
				mm := mechAt(i+a.Origin[0], j+a.Origin[1], k+a.Origin[2])
				p := (i + a.Origin[0]) & 1
				if am[p] != a.am[mm] || cm[p] != a.cm[mm] {
					t.Fatalf("rowMech(%d,%d)[%d] != mechanism %d", j, k, p, mm)
				}
			}
		}
	}
}

// mechAt returns the relaxation mechanism index for point (i,j,k), cycling
// through the 2x2x2 cell parity (the coarse-grained distribution).
func mechAt(i, j, k int) int {
	return ((k&1)<<2 | (j&1)<<1 | (i & 1)) % NRelax
}

// applyOracle is the per-point reference form of Apply: whole-array
// indexing, the mechanism looked up per point through mechAt, and one
// closure call per component. Apply's row-window loop must match it bit
// for bit.
func (a *Model) applyOracle(s *fd.State, m *medium.Medium, dt float64, box fd.Box) {
	c1, c2 := float32(fd.C1), float32(fd.C2)
	dh := float32(dt / m.H)
	u, v, w := s.VX.Data(), s.VY.Data(), s.VZ.Data()
	xx, yy, zz := s.XX.Data(), s.YY.Data(), s.ZZ.Data()
	xy, xz, yz := s.XY.Data(), s.XZ.Data(), s.YZ.Data()
	zxx, zyy, zzz := a.ZXX.Data(), a.ZYY.Data(), a.ZZZ.Data()
	zxy, zxz, zyz := a.ZXY.Data(), a.ZXZ.Data(), a.ZYZ.Data()
	dlam, dmu := a.DLam.Data(), a.DMu.Data()
	dx, dy, dz := s.VX.Strides()

	for k := box.K0; k < box.K1; k++ {
		for j := box.J0; j < box.J1; j++ {
			for i := box.I0; i < box.I1; i++ {
				n := s.VX.Idx(i, j, k)
				mm := mechAt(i+a.Origin[0], j+a.Origin[1], k+a.Origin[2])
				am, cm := a.am[mm], a.cm[mm]

				exx := dh * (c1*(u[n]-u[n-dx]) + c2*(u[n+dx]-u[n-2*dx]))
				eyy := dh * (c1*(v[n]-v[n-dy]) + c2*(v[n+dy]-v[n-2*dy]))
				ezz := dh * (c1*(w[n]-w[n-dz]) + c2*(w[n+dz]-w[n-2*dz]))
				exy := dh * (c1*(u[n+dy]-u[n]) + c2*(u[n+2*dy]-u[n-dy]) +
					c1*(v[n+dx]-v[n]) + c2*(v[n+2*dx]-v[n-dx]))
				exz := dh * (c1*(u[n+dz]-u[n]) + c2*(u[n+2*dz]-u[n-dz]) +
					c1*(w[n+dx]-w[n]) + c2*(w[n+2*dx]-w[n-dx]))
				eyz := dh * (c1*(v[n+dz]-v[n]) + c2*(v[n+2*dz]-v[n-dz]) +
					c1*(w[n+dy]-w[n]) + c2*(w[n+2*dy]-w[n-dy]))

				dl2m := dlam[n] + 2*dmu[n]
				trace := dlam[n] * (exx + eyy + ezz)
				upd := func(z *float32, drive float32, sig *float32) {
					zn := am*(*z) + cm*drive
					*sig += zn - *z
					*z = zn
				}
				upd(&zxx[n], dl2m*exx+trace-dlam[n]*exx, &xx[n])
				upd(&zyy[n], dl2m*eyy+trace-dlam[n]*eyy, &yy[n])
				upd(&zzz[n], dl2m*ezz+trace-dlam[n]*ezz, &zz[n])
				upd(&zxy[n], dmu[n]*exy, &xy[n])
				upd(&zxz[n], dmu[n]*exz, &xz[n])
				upd(&zyz[n], dmu[n]*eyz, &yz[n])
			}
		}
	}
}

// Apply's row-window loop must reproduce the per-point oracle bit for bit
// over several steps, for every origin parity and for boxes starting at
// odd and even I0 (the row parity table is keyed on the global x parity
// of the box's first column).
func TestApplyMatchesOracle(t *testing.T) {
	d := grid.Dims{NX: 13, NY: 11, NZ: 10}
	m := makeMedium(t, cvm.SoCal(1300, 1100, 1000, 400), d, 100)
	dt := m.StableDt(0.5)
	boxes := []fd.Box{
		fd.FullBox(d),
		{I0: 1, I1: 12, J0: 2, J1: 9, K0: 1, K1: 8},
		{I0: 3, I1: 4, J0: 0, J1: 11, K0: 0, K1: 10}, // single odd column
		{I0: 4, I1: 11, J0: 5, J1: 6, K0: 3, K1: 4},  // single row
	}
	origins := [][3]int{{0, 0, 0}, {1, 0, 0}, {0, 1, 1}, {1, 1, 1}, {3, 5, 7}}
	for bi, box := range boxes {
		for _, origin := range origins {
			sRef := fillStateSeeded(d, int64(200+bi))
			sGot := sRef.Clone()
			aRef := New(m, DefaultBand, dt)
			aGot := New(m, DefaultBand, dt)
			aRef.Origin, aGot.Origin = origin, origin
			for step := 0; step < 3; step++ {
				aRef.applyOracle(sRef, m, dt, box)
				aGot.Apply(sGot, m, dt, box)
			}
			label := fmt.Sprintf("box %v origin %v", box, origin)
			expectStatesEqual(t, sGot, sRef, label)
			expectMemVarsEqual(t, aGot, aRef, label)
		}
	}
}

// The per-step kernels run once per tile per step, so they must not
// allocate.
func TestKernelsAllocFree(t *testing.T) {
	d := grid.Dims{NX: 10, NY: 9, NZ: 8}
	m := makeMedium(t, cvm.SoCal(1000, 900, 800, 400), d, 100)
	dt := m.StableDt(0.5)
	a := New(m, DefaultBand, dt)
	s := fillStateSeeded(d, 5)
	box := fd.FullBox(d)
	if n := testing.AllocsPerRun(10, func() { a.Apply(s, m, dt, box) }); n != 0 {
		t.Errorf("Apply allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(10, func() { a.FusedStress(s, m, dt, box) }); n != 0 {
		t.Errorf("FusedStress allocates %v times per call", n)
	}
}

// QPredicted must be exact at the band center and approximately flat
// (constant Q) across the band — the defining property of the
// multi-mechanism spectrum (Day 1998).
func TestQPredictedFlatInBand(t *testing.T) {
	d := grid.Dims{NX: 4, NY: 4, NZ: 4}
	m := makeMedium(t, cvm.Homogeneous(cvm.Material{Vp: 6000, Vs: 3464, Rho: 2700}), d, 100)
	band := Band{FMin: 0.02, FMax: 2.0}
	a := New(m, band, 1e-3)
	target := 50.0
	if got := a.QPredicted(band.CenterOmega(), target); math.Abs(got-target)/target > 1e-9 {
		t.Fatalf("Q at center = %g, want %g", got, target)
	}
	for f := band.FMin; f <= band.FMax; f *= 1.5 {
		got := a.QPredicted(2*math.Pi*f, target)
		if got < 0.6*target || got > 1.6*target {
			t.Errorf("Q(%g Hz) = %g, outside +-60%% of %g", f, got, target)
		}
	}
	// Far outside the band, the model loses accuracy (Q rises) — that is
	// expected and should be visible.
	if got := a.QPredicted(2*math.Pi*band.FMax*100, target); got < 2*target {
		t.Errorf("Q far above band = %g, expected >> target", got)
	}
}

func TestApplyDtMismatchPanics(t *testing.T) {
	d := grid.Dims{NX: 4, NY: 4, NZ: 4}
	m := makeMedium(t, cvm.Homogeneous(cvm.Material{Vp: 6000, Vs: 3464, Rho: 2700}), d, 100)
	a := New(m, DefaultBand, 1e-3)
	s := fd.NewState(d)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.Apply(s, m, 2e-3, fd.FullBox(d))
}

func TestZeroQDisablesAttenuation(t *testing.T) {
	d := grid.Dims{NX: 8, NY: 8, NZ: 8}
	m := makeMedium(t, cvm.Homogeneous(cvm.Material{Vp: 6000, Vs: 3464, Rho: 2700}), d, 100)
	m.SetUniformQ(0, 0)
	dt := m.StableDt(0.5)
	a := New(m, DefaultBand, dt)
	s := fd.NewState(d)
	s.VX.Set(4, 4, 4, 1)
	before := s.Clone()
	fd.UpdateVelocity(s, m, dt, fd.FullBox(d), fd.Precomp, fd.Blocking{})
	fd.UpdateStress(s, m, dt, fd.FullBox(d), fd.Precomp, fd.Blocking{})
	ref := s.Clone()
	// Re-run with attenuation applied: must be identical when Q <= 0.
	s2 := before.Clone()
	fd.UpdateVelocity(s2, m, dt, fd.FullBox(d), fd.Precomp, fd.Blocking{})
	fd.UpdateStress(s2, m, dt, fd.FullBox(d), fd.Precomp, fd.Blocking{})
	a.Apply(s2, m, dt, fd.FullBox(d))
	if s2.L2Diff(ref) != 0 {
		t.Fatal("Q<=0 attenuation modified the wavefield")
	}
}

// exchangePeriodic refreshes ghosts with wrap-around for the decay test.
func exchangePeriodic(s *fd.State) {
	for _, f := range s.Fields() {
		for _, ax := range []grid.Axis{grid.X, grid.Y, grid.Z} {
			buf := make([]float32, f.FaceLen(ax, grid.Ghost))
			f.PackFace(ax, grid.High, grid.Ghost, buf)
			f.UnpackFace(ax, grid.Low, grid.Ghost, buf)
			f.PackFace(ax, grid.Low, grid.Ghost, buf)
			f.UnpackFace(ax, grid.High, grid.Ghost, buf)
		}
	}
}

// TestAmplitudeDecayMatchesQ propagates a periodic S plane wave through a
// constant-Q medium and checks the measured temporal amplitude decay rate
// against the theoretical omega/(2Q).
func TestAmplitudeDecayMatchesQ(t *testing.T) {
	mat := cvm.Material{Vp: 5196, Vs: 3000, Rho: 2500}
	nx := 64
	h := 50.0
	d := grid.Dims{NX: nx, NY: 4, NZ: 4}
	m := makeMedium(t, cvm.Homogeneous(mat), d, h)
	targetQ := 50.0
	m.SetUniformQ(2*targetQ, targetQ)

	L := float64(nx) * h
	kw := 2 * math.Pi / L
	omega := kw * mat.Vs // 5.89 rad/s -> f inside the band below
	band := Band{FMin: 0.3, FMax: 3.0}
	dt := m.StableDt(0.4)
	a := New(m, band, dt)

	s := fd.NewState(d)
	g := grid.Ghost
	for k := -g; k < d.NZ+g; k++ {
		for j := -g; j < d.NY+g; j++ {
			for i := -g; i < d.NX+g; i++ {
				x := float64(i) * h
				s.VY.Set(i, j, k, float32(math.Sin(kw*x)))
				xs := (float64(i) + 0.5) * h
				s.XY.Set(i, j, k, float32(-mat.Rho*mat.Vs*math.Sin(kw*(xs-mat.Vs*dt/2))))
			}
		}
	}

	rms := func() float64 {
		return math.Sqrt(s.VY.SumSq() / float64(d.Cells()))
	}
	box := fd.FullBox(d)
	step := func(n int) {
		for i := 0; i < n; i++ {
			exchangePeriodic(s)
			fd.UpdateVelocity(s, m, dt, box, fd.Precomp, fd.Blocking{})
			exchangePeriodic(s)
			fd.UpdateStress(s, m, dt, box, fd.Precomp, fd.Blocking{})
			a.Apply(s, m, dt, box)
		}
	}

	warm := 200
	step(warm)
	a0 := rms()
	n := 800
	step(n)
	a1 := rms()
	T := float64(n) * dt
	gotRate := math.Log(a0/a1) / T
	wantRate := omega / (2 * targetQ)
	if rel := math.Abs(gotRate-wantRate) / wantRate; rel > 0.25 {
		t.Fatalf("decay rate %g, want %g (rel err %g)", gotRate, wantRate, rel)
	}
}

// Without attenuation the same wave must not decay measurably.
func TestNoDecayWithoutAttenuation(t *testing.T) {
	mat := cvm.Material{Vp: 5196, Vs: 3000, Rho: 2500}
	nx := 64
	h := 50.0
	d := grid.Dims{NX: nx, NY: 4, NZ: 4}
	m := makeMedium(t, cvm.Homogeneous(mat), d, h)
	L := float64(nx) * h
	kw := 2 * math.Pi / L
	dt := m.StableDt(0.4)

	s := fd.NewState(d)
	g := grid.Ghost
	for k := -g; k < d.NZ+g; k++ {
		for j := -g; j < d.NY+g; j++ {
			for i := -g; i < d.NX+g; i++ {
				x := float64(i) * h
				s.VY.Set(i, j, k, float32(math.Sin(kw*x)))
				xs := (float64(i) + 0.5) * h
				s.XY.Set(i, j, k, float32(-mat.Rho*mat.Vs*math.Sin(kw*(xs-mat.Vs*dt/2))))
			}
		}
	}
	rms := func() float64 { return math.Sqrt(s.VY.SumSq() / float64(d.Cells())) }
	box := fd.FullBox(d)
	a0 := rms()
	for i := 0; i < 1000; i++ {
		exchangePeriodic(s)
		fd.UpdateVelocity(s, m, dt, box, fd.Precomp, fd.Blocking{})
		exchangePeriodic(s)
		fd.UpdateStress(s, m, dt, box, fd.Precomp, fd.Blocking{})
	}
	a1 := rms()
	if math.Abs(a1-a0)/a0 > 0.01 {
		t.Fatalf("elastic wave decayed: %g -> %g", a0, a1)
	}
}

// The tiled pool schedule must reproduce serial Apply bit-exactly: memory
// variables and stress corrections are per-point, so any disjoint tiling
// is race-free.
func TestApplyTiledBitIdentical(t *testing.T) {
	d := grid.Dims{NX: 14, NY: 17, NZ: 19}
	m := makeMedium(t, cvm.SoCal(1400, 1700, 1900, 400), d, 100)
	dt := m.StableDt(0.5)
	box := fd.FullBox(d)
	fill := func() *fd.State {
		s := fd.NewState(d)
		for fi, f := range s.Fields() {
			data := f.Data()
			for n := range data {
				data[n] = float32(fi+2) * float32(n%89-44) * 1e-3
			}
		}
		return s
	}

	ref := fill()
	ar := New(m, DefaultBand, dt)
	ar.Apply(ref, m, dt, box)

	for _, threads := range []int{1, 3, 8} {
		p := sched.NewPool(threads)
		s := fill()
		at := New(m, DefaultBand, dt)
		at.ApplyTiled(s, m, dt, box, fd.Blocking{JBlock: 4, KBlock: 4}, p)
		p.Close()
		for fi, f := range s.Fields() {
			a, b := f.Data(), ref.Fields()[fi].Data()
			for n := range a {
				if a[n] != b[n] {
					t.Fatalf("threads=%d field %d idx %d: %g != %g", threads, fi, n, a[n], b[n])
				}
			}
		}
		// Memory variables advanced identically too.
		za, zb := at.ZXY.Data(), ar.ZXY.Data()
		for n := range za {
			if za[n] != zb[n] {
				t.Fatalf("threads=%d memory variable idx %d differs", threads, n)
			}
		}
	}
}
