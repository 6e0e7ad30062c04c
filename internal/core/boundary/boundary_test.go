package boundary

import (
	"math"
	"sync"
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

// exchangeAxes refreshes ghosts periodically along the given axes.
func exchangeAxes(s *fd.State, axes ...grid.Axis) {
	for _, f := range s.Fields() {
		for _, ax := range axes {
			buf := make([]float32, f.FaceLen(ax, grid.Ghost))
			f.PackFace(ax, grid.High, grid.Ghost, buf)
			f.UnpackFace(ax, grid.Low, grid.Ghost, buf)
			f.PackFace(ax, grid.Low, grid.Ghost, buf)
			f.UnpackFace(ax, grid.High, grid.Ghost, buf)
		}
	}
}

func TestSpongeTaperShape(t *testing.T) {
	sp := NewSponge(grid.Dims{NX: 50, NY: 50, NZ: 50}, DefaultSpongeWidth, DefaultSpongeAlpha, AllAbsorbing())
	for i := 1; i < sp.Width; i++ {
		if sp.taper[i] <= sp.taper[i-1] {
			t.Fatalf("taper not increasing toward interior at %d", i)
		}
	}
	if sp.taper[sp.Width-1] >= 1 {
		t.Fatal("innermost taper must be < 1")
	}
	if sp.taper[0] <= 0 || sp.taper[0] >= sp.taper[sp.Width-1] {
		t.Fatal("boundary taper must be smallest positive")
	}
}

func TestSpongeWidthValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for width 0")
		}
	}()
	NewSponge(grid.Dims{NX: 8, NY: 8, NZ: 8}, 0, 0.015, FaceSet{})
}

func TestSpongeOnlyDampsSelectedFaces(t *testing.T) {
	d := grid.Dims{NX: 30, NY: 8, NZ: 8}
	sp := NewSponge(d, 5, 0.1, FaceSet{XHi: true})
	s := fd.NewState(d)
	for _, f := range s.Fields() {
		f.Fill(1)
	}
	sp.Apply(s)
	if s.VX.At(2, 4, 4) != 1 {
		t.Fatal("interior/low-x damped unexpectedly")
	}
	if s.VX.At(d.NX-1, 4, 4) >= 1 {
		t.Fatal("high-x boundary not damped")
	}
	if got := s.VX.At(d.NX-1, 4, 4); got >= s.VX.At(d.NX-3, 4, 4) {
		t.Fatalf("damping not monotone toward boundary: %g vs %g", got, s.VX.At(d.NX-3, 4, 4))
	}
}

func TestBuildPMLTilesWithoutOverlap(t *testing.T) {
	d := grid.Dims{NX: 40, NY: 36, NZ: 32}
	zones, interior := BuildPML(d, AllAbsorbing(), 8, DefaultMPMLRatio, DefaultPMLReflection, 6000, 100)
	if len(zones) != 5 { // x lo/hi, y lo/hi, z hi (top is free surface)
		t.Fatalf("zone count = %d, want 5", len(zones))
	}
	owned := make(map[[3]int]int)
	count := func(b fd.Box) {
		for k := b.K0; k < b.K1; k++ {
			for j := b.J0; j < b.J1; j++ {
				for i := b.I0; i < b.I1; i++ {
					owned[[3]int{i, j, k}]++
				}
			}
		}
	}
	for _, z := range zones {
		count(z.Zone)
	}
	count(interior)
	if len(owned) != d.Cells() {
		t.Fatalf("covered %d cells, want %d", len(owned), d.Cells())
	}
	for c, n := range owned {
		if n != 1 {
			t.Fatalf("cell %v owned %d times", c, n)
		}
	}
}

func TestBuildPMLPanicsWhenZonesConsumeGrid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BuildPML(grid.Dims{NX: 12, NY: 12, NZ: 12}, AllAbsorbing(), 6, 0.1, 1e-5, 6000, 100)
}

// pWaveState initializes a rightward-travelling P pulse centred at x0 (m).
func pWaveState(d grid.Dims, mat cvm.Material, h, dt, x0, sigma float64) *fd.State {
	s := fd.NewState(d)
	c := mat.Vp
	lam := mat.Rho*mat.Vp*mat.Vp - 2*mat.Rho*mat.Vs*mat.Vs
	f := func(x float64) float64 {
		dx := x - x0
		return math.Exp(-dx * dx / (2 * sigma * sigma))
	}
	g := grid.Ghost
	for k := -g; k < d.NZ+g; k++ {
		for j := -g; j < d.NY+g; j++ {
			for i := -g; i < d.NX+g; i++ {
				xv := (float64(i) + 0.5) * h // vx position
				s.VX.Set(i, j, k, float32(f(xv)))
				xs := float64(i) * h // normal stress position, t=+dt/2
				s.XX.Set(i, j, k, float32(-mat.Rho*c*f(xs-c*dt/2)))
				s.YY.Set(i, j, k, float32(-lam/c*f(xs-c*dt/2)))
				s.ZZ.Set(i, j, k, float32(-lam/c*f(xs-c*dt/2)))
			}
		}
	}
	return s
}

// velocityEnergyWindow sums vx^2 over i in [0, iMax).
func velocityEnergyWindow(s *fd.State, iMax int) float64 {
	var e float64
	for k := 0; k < s.Dims.NZ; k++ {
		for j := 0; j < s.Dims.NY; j++ {
			for i := 0; i < iMax; i++ {
				v := float64(s.VX.At(i, j, k))
				e += v * v
			}
		}
	}
	return e
}

// TestABCReflectionOrdering sends a P pulse into the high-x boundary under
// three treatments and checks the §II.D ordering: rigid boundary reflects
// nearly everything, the sponge absorbs most, the M-PML absorbs nearly all
// (PML reflection << sponge reflection).
func TestABCReflectionOrdering(t *testing.T) {
	mat := cvm.Material{Vp: 6000, Vs: 3464, Rho: 2700}
	q := cvm.Homogeneous(mat)
	nx, h := 140, 50.0
	d := grid.Dims{NX: nx, NY: 6, NZ: 6}
	m := makeMedium(t, q, d, h)
	dt := m.StableDt(0.45)
	sigma := 400.0
	x0 := 0.35 * float64(nx) * h
	// Time for the pulse to reach the boundary and any reflection to
	// return into the measurement window.
	steps := int(1.45 * float64(nx) * h / mat.Vp / dt)
	window := nx - DefaultPMLWidth - int(4*sigma/h)

	run := func(mode string) float64 {
		s := pWaveState(d, mat, h, dt, x0, sigma)
		e0 := velocityEnergyWindow(s, window)
		var zones []*PML
		interior := fd.FullBox(d)
		var sp *Sponge
		switch mode {
		case "pml":
			zones, interior = BuildPML(d, FaceSet{XHi: true}, DefaultPMLWidth,
				DefaultMPMLRatio, DefaultPMLReflection, mat.Vp, h)
		case "sponge":
			sp = NewSponge(d, DefaultSpongeWidth, DefaultSpongeAlpha, FaceSet{XHi: true})
		}
		pml := NewPMLSet(zones)
		for n := 0; n < steps; n++ {
			exchangeAxes(s, grid.Y, grid.Z)
			fd.UpdateVelocity(s, m, dt, interior, fd.Precomp, fd.Blocking{})
			pml.UpdateVelocity(s, m, dt, nil)
			exchangeAxes(s, grid.Y, grid.Z)
			fd.UpdateStress(s, m, dt, interior, fd.Precomp, fd.Blocking{})
			pml.UpdateStress(s, m, dt, nil)
			if sp != nil {
				sp.Apply(s)
			}
		}
		return velocityEnergyWindow(s, window) / e0
	}

	rigid := run("rigid")
	sponge := run("sponge")
	pml := run("pml")
	t.Logf("residual energy fractions: rigid=%.4f sponge=%.4f pml=%.6f", rigid, sponge, pml)
	if rigid < 0.5 {
		t.Errorf("rigid boundary lost energy: %g (test geometry suspect)", rigid)
	}
	// At normal incidence both ABCs absorb well (the sponge's weakness is
	// grazing incidence and long wavelengths); require both to beat the
	// rigid wall by orders of magnitude at their production widths.
	if sponge > 0.3 {
		t.Errorf("sponge residual %g, want < 0.3", sponge)
	}
	if pml > 0.02 {
		t.Errorf("PML residual %g, want < 0.02", pml)
	}
}

// TestMPMLStableLongRun drives a pulse into a corner PML region in a
// strongly layered medium and checks no blow-up over a long run (the
// multi-axial damping term is what keeps this stable, §II.D).
func TestMPMLStableLongRun(t *testing.T) {
	d := grid.Dims{NX: 48, NY: 48, NZ: 32}
	m := makeMedium(t, cvm.HardRock(), d, 200)
	dt := m.StableDt(0.45)
	zones, interior := BuildPML(d, AllAbsorbing(), 8, DefaultMPMLRatio, DefaultPMLReflection, m.MaxVp, 200)
	pml := NewPMLSet(zones)
	fs := NewFreeSurface(d)

	s := fd.NewState(d)
	s.VZ.Set(24, 24, 10, 1) // impulsive point source
	for n := 0; n < 600; n++ {
		fd.UpdateVelocity(s, m, dt, interior, fd.Precomp, fd.Blocking{})
		pml.UpdateVelocity(s, m, dt, nil)
		fs.ApplyVelocity(s, m)
		fd.UpdateStress(s, m, dt, interior, fd.Precomp, fd.Blocking{})
		pml.UpdateStress(s, m, dt, nil)
		fs.ApplyStress(s)
	}
	e := s.VX.SumSq() + s.VY.SumSq() + s.VZ.SumSq()
	if math.IsNaN(e) || e > 1 {
		t.Fatalf("M-PML run unstable or not absorbing: energy %g (impulse should have left)", e)
	}
}

func TestFreeSurfaceStressImages(t *testing.T) {
	d := grid.Dims{NX: 8, NY: 8, NZ: 8}
	fs := NewFreeSurface(d)
	s := fd.NewState(d)
	s.ZZ.Set(3, 3, 0, 2)
	s.ZZ.Set(3, 3, 1, 4)
	s.XZ.Set(3, 3, 0, 6)
	s.YZ.Set(3, 3, 0, 8)
	fs.ApplyStress(s)
	if s.ZZ.At(3, 3, -1) != -2 || s.ZZ.At(3, 3, -2) != -4 {
		t.Errorf("szz images wrong: %g %g", s.ZZ.At(3, 3, -1), s.ZZ.At(3, 3, -2))
	}
	if s.XZ.At(3, 3, -1) != 0 || s.XZ.At(3, 3, -2) != -6 {
		t.Errorf("sxz images wrong")
	}
	if s.YZ.At(3, 3, -1) != 0 || s.YZ.At(3, 3, -2) != -8 {
		t.Errorf("syz images wrong")
	}
}

// TestFreeSurfaceReflectionDoubling: a plane P wave incident vertically on
// the free surface reflects with velocity doubling at the surface and full
// amplitude on return (free-surface reflection coefficient -1 for stress,
// +1 for velocity).
func TestFreeSurfaceReflection(t *testing.T) {
	mat := cvm.Material{Vp: 6000, Vs: 3464, Rho: 2700}
	q := cvm.Homogeneous(mat)
	nz, h := 200, 50.0
	d := grid.Dims{NX: 6, NY: 6, NZ: nz}
	m := makeMedium(t, q, d, h)
	dt := m.StableDt(0.45)
	fs := NewFreeSurface(d)

	sigma := 400.0
	z0 := 0.4 * float64(nz) * h
	f := func(z float64) float64 {
		dz := z - z0
		return math.Exp(-dz * dz / (2 * sigma * sigma))
	}
	// Upward (toward z low, the surface): w = f(z + vp t), szz = rho*vp*f.
	c := mat.Vp
	lam := mat.Rho*mat.Vp*mat.Vp - 2*mat.Rho*mat.Vs*mat.Vs
	s := fd.NewState(d)
	g := grid.Ghost
	for k := -g; k < d.NZ+g; k++ {
		for j := -g; j < d.NY+g; j++ {
			for i := -g; i < d.NX+g; i++ {
				zw := (float64(k) + 0.5) * h // w position
				s.VZ.Set(i, j, k, float32(f(zw)))
				zs := float64(k) * h // normal stress, t=+dt/2
				s.ZZ.Set(i, j, k, float32(mat.Rho*c*f(zs+c*dt/2)))
				s.XX.Set(i, j, k, float32(lam/c*f(zs+c*dt/2)))
				s.YY.Set(i, j, k, float32(lam/c*f(zs+c*dt/2)))
			}
		}
	}

	peak0 := s.VZ.MaxAbs()
	box := fd.FullBox(d)
	// Travel time to the surface and back to z0.
	total := int((2 * z0) / c / dt)
	var surfMax float32
	for n := 0; n < total; n++ {
		exchangeAxes(s, grid.X, grid.Y)
		fd.UpdateVelocity(s, m, dt, box, fd.Precomp, fd.Blocking{})
		fs.ApplyVelocity(s, m)
		exchangeAxes(s, grid.X, grid.Y)
		fd.UpdateStress(s, m, dt, box, fd.Precomp, fd.Blocking{})
		fs.ApplyStress(s)
		if v := abs32(s.VZ.At(3, 3, 0)); v > surfMax {
			surfMax = v
		}
	}
	// (a) velocity doubling at the surface;
	if surfMax < 1.8*peak0 || surfMax > 2.2*peak0 {
		t.Errorf("surface peak %g, want ~2x incident %g", surfMax, peak0)
	}
	// (b) reflected pulse retains amplitude near z0 (within 10%: some
	// spread is expected from dispersion and the 2nd-order images).
	var reflPeak float32
	for k := int(z0/h) - 20; k < int(z0/h)+20; k++ {
		if v := abs32(s.VZ.At(3, 3, k)); v > reflPeak {
			reflPeak = v
		}
	}
	if reflPeak < 0.9*peak0 || reflPeak > 1.1*peak0 {
		t.Errorf("reflected peak %g, want ~%g", reflPeak, peak0)
	}
}

func abs32(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}

// TestClassicPMLUnstableMPMLStable demonstrates the §II.D claim that
// motivated the multi-axial PML: under strong media gradients inside the
// boundary zones, the classic split-field PML (parallel damping ratio
// p = 0) is exponentially unstable, while the M-PML (p = 0.1) remains
// stable and absorbing (Meza-Fajardo & Papageorgiou 2008).
func TestClassicPMLUnstableMPMLStable(t *testing.T) {
	if testing.Short() {
		t.Skip("3000-step instability demonstration; skipped in -short")
	}
	d := grid.Dims{NX: 40, NY: 40, NZ: 32}
	h := 100.0
	q, err := cvm.NewLayered(
		[]float64{0, 800, 1600},
		[]cvm.Material{
			{Vp: 1200, Vs: 500, Rho: 1800},
			{Vp: 3500, Vs: 2000, Rho: 2400},
			{Vp: 6500, Vs: 3750, Rho: 2800},
		})
	if err != nil {
		t.Fatal(err)
	}
	m := makeMedium(t, q, d, h)
	dt := m.StableDt(0.45)

	run := func(p float64) float64 {
		zones, interior := BuildPML(d, AllAbsorbing(), 8, p, DefaultPMLReflection, m.MaxVp, h)
		pml := NewPMLSet(zones)
		s := fd.NewState(d)
		s.VZ.Set(20, 20, 8, 1)
		fsf := NewFreeSurface(d)
		for n := 0; n < 3000; n++ {
			fd.UpdateVelocity(s, m, dt, interior, fd.Precomp, fd.Blocking{})
			pml.UpdateVelocity(s, m, dt, nil)
			fsf.ApplyVelocity(s, m)
			fd.UpdateStress(s, m, dt, interior, fd.Precomp, fd.Blocking{})
			pml.UpdateStress(s, m, dt, nil)
			fsf.ApplyStress(s)
		}
		return s.VX.SumSq() + s.VY.SumSq() + s.VZ.SumSq()
	}

	classic := run(0)
	mpml := run(DefaultMPMLRatio)
	t.Logf("velocity energy after 3000 steps: classic PML %.3e, M-PML %.3e", classic, mpml)
	if !(classic > 100*mpml) || classic < 1 {
		t.Errorf("classic PML did not go unstable (E=%g); the M-PML motivation should reproduce", classic)
	}
	if mpml > 0.1 {
		t.Errorf("M-PML energy %g: should have absorbed the impulse", mpml)
	}
}

// ApplyPool must reproduce Apply bit-exactly: planes are disjoint rows of
// the padded arrays, so scheduling cannot change the arithmetic.
func TestSpongeApplyPoolBitIdentical(t *testing.T) {
	d := grid.Dims{NX: 18, NY: 13, NZ: 11}
	fill := func() *fd.State {
		s := fd.NewState(d)
		for fi, f := range s.Fields() {
			data := f.Data()
			for n := range data {
				data[n] = float32(fi+1) * float32(n%97-48)
			}
		}
		return s
	}
	sp := NewSpongeGlobal(d, grid.Dims{NX: 36, NY: 13, NZ: 11}, [3]int{18, 0, 0},
		6, 0.1, AllAbsorbing())
	ref := fill()
	sp.Apply(ref)
	for _, threads := range []int{2, 4, 9} {
		p := sched.NewPool(threads)
		s := fill()
		sp.ApplyPool(s, p)
		p.Close()
		for fi, f := range s.Fields() {
			a, b := f.Data(), ref.Fields()[fi].Data()
			for n := range a {
				if a[n] != b[n] {
					t.Fatalf("threads=%d field %d idx %d: %g != %g", threads, fi, n, a[n], b[n])
				}
			}
		}
	}
	// Uniform fast path: a subgrid far from every absorbing zone is left
	// untouched without visiting any plane.
	far := NewSpongeGlobal(grid.Dims{NX: 4, NY: 4, NZ: 4}, grid.Dims{NX: 100, NY: 100, NZ: 100},
		[3]int{48, 48, 48}, 5, 0.1, AllAbsorbing())
	s := fill2(grid.Dims{NX: 4, NY: 4, NZ: 4})
	before := append([]float32(nil), s.VX.Data()...)
	far.ApplyPool(s, nil)
	for n := range before {
		if s.VX.Data()[n] != before[n] {
			t.Fatal("interior subgrid modified")
		}
	}
}

func fill2(d grid.Dims) *fd.State {
	s := fd.NewState(d)
	for _, f := range s.Fields() {
		data := f.Data()
		for n := range data {
			data[n] = float32(n%13) + 1
		}
	}
	return s
}

// ApplySurfaceFused must damp exactly like ApplyPool and call the surface
// hook once per interior row every step — including on subgrids the
// uniform fast path would otherwise skip entirely.
func TestSpongeApplySurfaceFusedBitIdentical(t *testing.T) {
	d := grid.Dims{NX: 18, NY: 13, NZ: 11}
	fill := func() *fd.State {
		s := fd.NewState(d)
		for fi, f := range s.Fields() {
			data := f.Data()
			for n := range data {
				data[n] = float32(fi+1) * float32(n%89-44)
			}
		}
		return s
	}
	sp := NewSpongeGlobal(d, grid.Dims{NX: 36, NY: 13, NZ: 11}, [3]int{18, 0, 0},
		6, 0.1, AllAbsorbing())
	ref := fill()
	sp.Apply(ref)
	for _, threads := range []int{1, 3, 8} {
		p := sched.NewPool(threads)
		s := fill()
		var mu sync.Mutex
		seen := make(map[int]int)
		sp.ApplySurfaceFused(s, p, func(j int) {
			mu.Lock()
			seen[j]++
			mu.Unlock()
		})
		p.Close()
		for fi, f := range s.Fields() {
			a, b := f.Data(), ref.Fields()[fi].Data()
			for n := range a {
				if a[n] != b[n] {
					t.Fatalf("threads=%d field %d idx %d: %g != %g", threads, fi, n, a[n], b[n])
				}
			}
		}
		if len(seen) != d.NY {
			t.Fatalf("threads=%d: surface hook saw %d rows, want %d", threads, len(seen), d.NY)
		}
		for j, n := range seen {
			if j < 0 || j >= d.NY || n != 1 {
				t.Fatalf("threads=%d: row %d visited %d times", threads, j, n)
			}
		}
	}

	// Uniform fast path: no damping, but the surface hook still runs for
	// every row (the PGV fold must happen every step).
	far := NewSpongeGlobal(grid.Dims{NX: 4, NY: 4, NZ: 4}, grid.Dims{NX: 100, NY: 100, NZ: 100},
		[3]int{48, 48, 48}, 5, 0.1, AllAbsorbing())
	s := fill2(grid.Dims{NX: 4, NY: 4, NZ: 4})
	before := append([]float32(nil), s.VX.Data()...)
	rows := 0
	far.ApplySurfaceFused(s, nil, func(j int) { rows++ })
	if rows != 4 {
		t.Fatalf("uniform path ran surface hook for %d rows, want 4", rows)
	}
	for n := range before {
		if s.VX.Data()[n] != before[n] {
			t.Fatal("uniform-path subgrid modified")
		}
	}
}

// spongeOracle damps every padded cell of every component by the taper
// product fx*(fy*fz), each factor taken straight from factorAxis — the
// per-cell definition the row kernels (x-zone column ranges, hoisted y/z
// products, pooled planes) must reproduce bit for bit.
func spongeOracle(sp *Sponge, s *fd.State) {
	g := grid.Ghost
	l, gl := sp.Local, sp.Global
	for _, f := range s.Fields() {
		for k := -g; k < l.NZ+g; k++ {
			fz := sp.factorAxis(sp.Off[2]+k, gl.NZ, sp.Faces.ZLo, sp.Faces.ZHi)
			for j := -g; j < l.NY+g; j++ {
				fyz := sp.factorAxis(sp.Off[1]+j, gl.NY, sp.Faces.YLo, sp.Faces.YHi) * fz
				for i := -g; i < l.NX+g; i++ {
					t := sp.factorAxis(sp.Off[0]+i, gl.NX, sp.Faces.XLo, sp.Faces.XHi) * fyz
					if t != 1 {
						f.Set(i, j, k, f.At(i, j, k)*t)
					}
				}
			}
		}
	}
}

// The sponge's row kernels must match the per-cell oracle on subgrids
// inside, straddling and beyond the zones, with overlapping zones (global
// extent under twice the width), single faces and no x faces at all; and
// ApplySurfaceFused must damp identically.
func TestSpongeMatchesPerCellOracle(t *testing.T) {
	cases := []struct {
		name          string
		local, global grid.Dims
		off           [3]int
		width         int
		faces         FaceSet
	}{
		{"single-rank", grid.Dims{NX: 20, NY: 14, NZ: 12}, grid.Dims{NX: 20, NY: 14, NZ: 12}, [3]int{}, 5, AllAbsorbing()},
		{"low-corner", grid.Dims{NX: 9, NY: 8, NZ: 7}, grid.Dims{NX: 40, NY: 40, NZ: 40}, [3]int{}, 6, AllAbsorbing()},
		{"inside-x-zone", grid.Dims{NX: 5, NY: 8, NZ: 7}, grid.Dims{NX: 40, NY: 16, NZ: 14}, [3]int{2, 4, 0}, 9, AllAbsorbing()},
		{"high-corner", grid.Dims{NX: 10, NY: 9, NZ: 8}, grid.Dims{NX: 30, NY: 29, NZ: 28}, [3]int{20, 20, 20}, 6, AllAbsorbing()},
		{"overlapping-zones", grid.Dims{NX: 7, NY: 6, NZ: 5}, grid.Dims{NX: 7, NY: 6, NZ: 5}, [3]int{}, 5, AllAbsorbing()},
		{"x-high-only", grid.Dims{NX: 12, NY: 7, NZ: 6}, grid.Dims{NX: 24, NY: 7, NZ: 6}, [3]int{12, 0, 0}, 5, FaceSet{XHi: true}},
		{"no-x-faces", grid.Dims{NX: 12, NY: 10, NZ: 9}, grid.Dims{NX: 12, NY: 10, NZ: 9}, [3]int{}, 4, FaceSet{YLo: true, ZHi: true}},
	}
	for _, tc := range cases {
		sp := NewSpongeGlobal(tc.local, tc.global, tc.off, tc.width, 0.1, tc.faces)
		ref := fill2(tc.local)
		spongeOracle(sp, ref)
		for _, threads := range []int{1, 3} {
			p := sched.NewPool(threads)
			s := fill2(tc.local)
			sp.ApplyPool(s, p)
			fused := fill2(tc.local)
			sp.ApplySurfaceFused(fused, p, func(int) {})
			p.Close()
			for fi, f := range ref.Fields() {
				want := f.Data()
				for n, got := range s.Fields()[fi].Data() {
					if got != want[n] {
						t.Fatalf("%s threads=%d: ApplyPool field %d idx %d: %g != %g", tc.name, threads, fi, n, got, want[n])
					}
					if fg := fused.Fields()[fi].Data()[n]; fg != want[n] {
						t.Fatalf("%s threads=%d: ApplySurfaceFused field %d idx %d: %g != %g", tc.name, threads, fi, n, fg, want[n])
					}
				}
			}
		}
	}
}

// The per-step sponge pass must not allocate on a serial pool.
func TestSpongeApplyPoolAllocFree(t *testing.T) {
	d := grid.Dims{NX: 12, NY: 10, NZ: 9}
	sp := NewSponge(d, 4, 0.1, AllAbsorbing())
	s := fill2(d)
	for _, p := range []*sched.Pool{nil, sched.NewPool(1)} {
		if n := testing.AllocsPerRun(10, func() { sp.ApplyPool(s, p) }); n != 0 {
			t.Errorf("ApplyPool allocates %v times per call", n)
		}
	}
}
