package boundary

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core/fd"
	"repro/internal/core/sched"
	"repro/internal/cvm"
	"repro/internal/grid"
	"repro/internal/medium"
)

// oraclePML is the per-cell M-PML reference the strip kernels must match
// bit for bit: all 27 splits on ghost-padded zone grids, and the float64
// coefficients recomputed at every cell.
type oraclePML struct {
	zone  fd.Box
	axis  grid.Axis
	side  grid.Side
	p     float64
	damp  []float64
	split [3]*fd.State
}

func newOracle(pm *PML) *oraclePML {
	z := pm.Zone
	zd := grid.Dims{NX: z.I1 - z.I0, NY: z.J1 - z.J0, NZ: z.K1 - z.K0}
	o := &oraclePML{zone: z, axis: pm.Axis, side: pm.Side, p: pm.P, damp: pm.damp}
	for s := 0; s < 3; s++ {
		o.split[s] = fd.NewState(zd)
	}
	return o
}

func (o *oraclePML) dampAt(i, j, k int) float64 {
	var l int
	switch o.axis {
	case grid.X:
		if o.side == grid.Low {
			l = i - o.zone.I0
		} else {
			l = o.zone.I1 - 1 - i
		}
	case grid.Y:
		if o.side == grid.Low {
			l = j - o.zone.J0
		} else {
			l = o.zone.J1 - 1 - j
		}
	default:
		if o.side == grid.Low {
			l = k - o.zone.K0
		} else {
			l = o.zone.K1 - 1 - k
		}
	}
	if l < 0 {
		l = 0
	}
	if l >= len(o.damp) {
		l = len(o.damp) - 1
	}
	return o.damp[l]
}

func (o *oraclePML) coeffs(i, j, k int, dt float64) (dec, gain [3]float32) {
	d := o.dampAt(i, j, k)
	for s := 0; s < 3; s++ {
		ds := o.p * d
		if grid.Axis(s) == o.axis {
			ds = d
		}
		den := 1 + ds*dt/2
		dec[s] = float32((1 - ds*dt/2) / den)
		gain[s] = float32(1 / den)
	}
	return
}

func (o *oraclePML) UpdateVelocity(s *fd.State, m *medium.Medium, dt float64) {
	c1, c2 := float32(fd.C1), float32(fd.C2)
	dth := float32(dt / m.H)
	u, v, w := s.VX.Data(), s.VY.Data(), s.VZ.Data()
	xx, yy, zz := s.XX.Data(), s.YY.Data(), s.ZZ.Data()
	xy, xz, yz := s.XY.Data(), s.XZ.Data(), s.YZ.Data()
	bx, by, bz := m.BX.Data(), m.BY.Data(), m.BZ.Data()
	dx, dy, dz := s.VX.Strides()
	z := o.zone
	for k := z.K0; k < z.K1; k++ {
		for j := z.J0; j < z.J1; j++ {
			for i := z.I0; i < z.I1; i++ {
				n := s.VX.Idx(i, j, k)
				li, lj, lk := i-z.I0, j-z.J0, k-z.K0
				dec, gain := o.coeffs(i, j, k, dt)
				uTx := dth * bx[n] * (c1*(xx[n+dx]-xx[n]) + c2*(xx[n+2*dx]-xx[n-dx]))
				uTy := dth * bx[n] * (c1*(xy[n]-xy[n-dy]) + c2*(xy[n+dy]-xy[n-2*dy]))
				uTz := dth * bx[n] * (c1*(xz[n]-xz[n-dz]) + c2*(xz[n+dz]-xz[n-2*dz]))
				vTx := dth * by[n] * (c1*(xy[n]-xy[n-dx]) + c2*(xy[n+dx]-xy[n-2*dx]))
				vTy := dth * by[n] * (c1*(yy[n+dy]-yy[n]) + c2*(yy[n+2*dy]-yy[n-dy]))
				vTz := dth * by[n] * (c1*(yz[n]-yz[n-dz]) + c2*(yz[n+dz]-yz[n-2*dz]))
				wTx := dth * bz[n] * (c1*(xz[n]-xz[n-dx]) + c2*(xz[n+dx]-xz[n-2*dx]))
				wTy := dth * bz[n] * (c1*(yz[n]-yz[n-dy]) + c2*(yz[n+dy]-yz[n-2*dy]))
				wTz := dth * bz[n] * (c1*(zz[n+dz]-zz[n]) + c2*(zz[n+2*dz]-zz[n-dz]))
				var sum [3]float32
				for sdir := 0; sdir < 3; sdir++ {
					sp := o.split[sdir]
					var tU, tV, tW float32
					switch sdir {
					case 0:
						tU, tV, tW = uTx, vTx, wTx
					case 1:
						tU, tV, tW = uTy, vTy, wTy
					default:
						tU, tV, tW = uTz, vTz, wTz
					}
					nu := dec[sdir]*sp.VX.At(li, lj, lk) + gain[sdir]*tU
					nv := dec[sdir]*sp.VY.At(li, lj, lk) + gain[sdir]*tV
					nw := dec[sdir]*sp.VZ.At(li, lj, lk) + gain[sdir]*tW
					sp.VX.Set(li, lj, lk, nu)
					sp.VY.Set(li, lj, lk, nv)
					sp.VZ.Set(li, lj, lk, nw)
					sum[0] += nu
					sum[1] += nv
					sum[2] += nw
				}
				u[n], v[n], w[n] = sum[0], sum[1], sum[2]
			}
		}
	}
}

func (o *oraclePML) UpdateStress(s *fd.State, m *medium.Medium, dt float64) {
	c1, c2 := float32(fd.C1), float32(fd.C2)
	dth := float32(dt / m.H)
	u, v, w := s.VX.Data(), s.VY.Data(), s.VZ.Data()
	xx, yy, zz := s.XX.Data(), s.YY.Data(), s.ZZ.Data()
	xy, xz, yz := s.XY.Data(), s.XZ.Data(), s.YZ.Data()
	lam, l2m := m.Lam.Data(), m.Lam2Mu.Data()
	mxy, mxz, myz := m.MuXY.Data(), m.MuXZ.Data(), m.MuYZ.Data()
	dx, dy, dz := s.VX.Strides()
	z := o.zone
	for k := z.K0; k < z.K1; k++ {
		for j := z.J0; j < z.J1; j++ {
			for i := z.I0; i < z.I1; i++ {
				n := s.VX.Idx(i, j, k)
				li, lj, lk := i-z.I0, j-z.J0, k-z.K0
				dec, gain := o.coeffs(i, j, k, dt)
				exx := dth * (c1*(u[n]-u[n-dx]) + c2*(u[n+dx]-u[n-2*dx]))
				eyy := dth * (c1*(v[n]-v[n-dy]) + c2*(v[n+dy]-v[n-2*dy]))
				ezz := dth * (c1*(w[n]-w[n-dz]) + c2*(w[n+dz]-w[n-2*dz]))
				duy := dth * (c1*(u[n+dy]-u[n]) + c2*(u[n+2*dy]-u[n-dy]))
				dvx := dth * (c1*(v[n+dx]-v[n]) + c2*(v[n+2*dx]-v[n-dx]))
				duz := dth * (c1*(u[n+dz]-u[n]) + c2*(u[n+2*dz]-u[n-dz]))
				dwx := dth * (c1*(w[n+dx]-w[n]) + c2*(w[n+2*dx]-w[n-dx]))
				dvz := dth * (c1*(v[n+dz]-v[n]) + c2*(v[n+2*dz]-v[n-dz]))
				dwy := dth * (c1*(w[n+dy]-w[n]) + c2*(w[n+2*dy]-w[n-dy]))
				type contrib struct{ tx, ty, tz float32 }
				cXX := contrib{l2m[n] * exx, lam[n] * eyy, lam[n] * ezz}
				cYY := contrib{lam[n] * exx, l2m[n] * eyy, lam[n] * ezz}
				cZZ := contrib{lam[n] * exx, lam[n] * eyy, l2m[n] * ezz}
				cXY := contrib{mxy[n] * dvx, mxy[n] * duy, 0}
				cXZ := contrib{mxz[n] * dwx, 0, mxz[n] * duz}
				cYZ := contrib{0, myz[n] * dwy, myz[n] * dvz}
				var sXX, sYY, sZZ, sXY, sXZ, sYZ float32
				for sdir := 0; sdir < 3; sdir++ {
					sp := o.split[sdir]
					pick := func(c contrib) float32 {
						switch sdir {
						case 0:
							return c.tx
						case 1:
							return c.ty
						default:
							return c.tz
						}
					}
					nxx := dec[sdir]*sp.XX.At(li, lj, lk) + gain[sdir]*pick(cXX)
					nyy := dec[sdir]*sp.YY.At(li, lj, lk) + gain[sdir]*pick(cYY)
					nzz := dec[sdir]*sp.ZZ.At(li, lj, lk) + gain[sdir]*pick(cZZ)
					nxy := dec[sdir]*sp.XY.At(li, lj, lk) + gain[sdir]*pick(cXY)
					nxz := dec[sdir]*sp.XZ.At(li, lj, lk) + gain[sdir]*pick(cXZ)
					nyz := dec[sdir]*sp.YZ.At(li, lj, lk) + gain[sdir]*pick(cYZ)
					sp.XX.Set(li, lj, lk, nxx)
					sp.YY.Set(li, lj, lk, nyy)
					sp.ZZ.Set(li, lj, lk, nzz)
					sp.XY.Set(li, lj, lk, nxy)
					sp.XZ.Set(li, lj, lk, nxz)
					sp.YZ.Set(li, lj, lk, nyz)
					sXX += nxx
					sYY += nyy
					sZZ += nzz
					sXY += nxy
					sXZ += nxz
					sYZ += nyz
				}
				xx[n], yy[n], zz[n] = sXX, sYY, sZZ
				xy[n], xz[n], yz[n] = sXY, sXZ, sYZ
			}
		}
	}
}

// stripSplit returns the strip kernels' dense split of component comp
// (fd.State field order) in direction s, or nil when it is not stored.
func stripSplit(pm *PML, comp, s int) []float32 {
	switch {
	case comp < 3:
		return pm.vel[comp][s]
	case comp < 6:
		return pm.nrm[comp-3][s]
	}
	// sxy: x,y; sxz: x,z; syz: y,z.
	pairs := [3][2]int{{0, 1}, {0, 2}, {1, 2}}
	for q, ps := range pairs[comp-6] {
		if ps == s {
			return pm.shr[comp-6][q]
		}
	}
	return nil
}

func randomState(d grid.Dims, seed int64) *fd.State {
	rng := rand.New(rand.NewSource(seed))
	s := fd.NewState(d)
	for _, f := range s.Fields() {
		for n := range f.Data() {
			f.Data()[n] = float32(rng.NormFloat64())
		}
	}
	return s
}

func layeredMedium(t testing.TB, d grid.Dims, h float64) *medium.Medium {
	t.Helper()
	q, err := cvm.NewLayered(
		[]float64{0, 400, 900},
		[]cvm.Material{
			{Vp: 1200, Vs: 500, Rho: 1800},
			{Vp: 3500, Vs: 2000, Rho: 2400},
			{Vp: 6500, Vs: 3750, Rho: 2800},
		})
	if err != nil {
		t.Fatal(err)
	}
	return makeMedium(t, q, d, h)
}

// TestPMLStripMatchesPerCellOracle: the strip kernels — as an inline and
// as a threaded row queue — reproduce the per-cell reference bit for bit
// after 50 steps in a layered medium, over all six zone orientations,
// classic (P=0) and multi-axial (P=0.1) damping and odd widths. Every
// stored split matches too, and the three unstored ones stay exactly +0
// in the reference.
func TestPMLStripMatchesPerCellOracle(t *testing.T) {
	const steps = 50
	d := grid.Dims{NX: 19, NY: 17, NZ: 15}
	h := 100.0
	m := layeredMedium(t, d, h)
	dt := m.StableDt(0.45)
	all := FaceSet{XLo: true, XHi: true, YLo: true, YHi: true, ZLo: true, ZHi: true}
	for _, width := range []int{3, 5} {
		for _, p := range []float64{0, DefaultMPMLRatio} {
			t.Run(fmt.Sprintf("w%d_p%g", width, p), func(t *testing.T) {
				zones, interior := BuildPML(d, all, width, p, DefaultPMLReflection, m.MaxVp, h)
				pooled, _ := BuildPML(d, all, width, p, DefaultPMLReflection, m.MaxVp, h)
				if len(zones) != 6 {
					t.Fatalf("%d zones, want all six orientations", len(zones))
				}
				oracles := make([]*oraclePML, len(zones))
				for i, z := range zones {
					oracles[i] = newOracle(z)
				}
				inline, queued := NewPMLSet(zones), NewPMLSet(pooled)
				pool := sched.NewPool(3)
				defer pool.Close()

				got, want, par := randomState(d, 7), randomState(d, 7), randomState(d, 7)
				for n := 0; n < steps; n++ {
					for _, s := range []*fd.State{got, want, par} {
						fd.UpdateVelocity(s, m, dt, interior, fd.Precomp, fd.Blocking{})
					}
					inline.UpdateVelocity(got, m, dt, nil)
					queued.UpdateVelocity(par, m, dt, pool)
					for _, o := range oracles {
						o.UpdateVelocity(want, m, dt)
					}
					for _, s := range []*fd.State{got, want, par} {
						fd.UpdateStress(s, m, dt, interior, fd.Precomp, fd.Blocking{})
					}
					inline.UpdateStress(got, m, dt, nil)
					queued.UpdateStress(par, m, dt, pool)
					for _, o := range oracles {
						o.UpdateStress(want, m, dt)
					}
				}
				for fi, f := range want.Fields() {
					w, g, q := f.Data(), got.Fields()[fi].Data(), par.Fields()[fi].Data()
					for n := range w {
						if math.Float32bits(g[n]) != math.Float32bits(w[n]) {
							t.Fatalf("%s[%d]: inline %g, oracle %g", fd.FieldNames[fi], n, g[n], w[n])
						}
						if math.Float32bits(q[n]) != math.Float32bits(w[n]) {
							t.Fatalf("%s[%d]: row queue %g, oracle %g", fd.FieldNames[fi], n, q[n], w[n])
						}
					}
				}
				for zi, z := range zones {
					o := oracles[zi]
					for comp := 0; comp < 9; comp++ {
						for s := 0; s < 3; s++ {
							of, sp := o.split[s].Fields()[comp], stripSplit(z, comp, s)
							for lk := 0; lk < z.nz; lk++ {
								for lj := 0; lj < z.ny; lj++ {
									for li := 0; li < z.nx; li++ {
										ov := math.Float32bits(of.At(li, lj, lk))
										if sp == nil {
											if ov != 0 {
												t.Fatalf("zone %d %s split %d: unstored split is %g, want +0",
													zi, fd.FieldNames[comp], s, of.At(li, lj, lk))
											}
											continue
										}
										if gv := math.Float32bits(sp[(lk*z.ny+lj)*z.nx+li]); gv != ov {
											t.Fatalf("zone %d %s split %d at (%d,%d,%d) differs", zi, fd.FieldNames[comp], s, li, lj, lk)
										}
									}
								}
							}
						}
					}
				}
			})
		}
	}
}

// A zone step allocates nothing: no row buffers, no closures.
func TestPMLStepAllocatesNothing(t *testing.T) {
	d := grid.Dims{NX: 24, NY: 20, NZ: 16}
	m := layeredMedium(t, d, 100)
	dt := m.StableDt(0.45)
	zones, _ := BuildPML(d, AllAbsorbing(), 5, DefaultMPMLRatio, DefaultPMLReflection, m.MaxVp, 100)
	s := randomState(d, 3)
	set := NewPMLSet(zones)
	if a := testing.AllocsPerRun(10, func() {
		set.UpdateVelocity(s, m, dt, nil)
		set.UpdateStress(s, m, dt, nil)
	}); a != 0 {
		t.Errorf("zone step: %v allocs, want 0", a)
	}
}

// BenchmarkPMLZone reports the cost of one M-PML cell-step (velocity +
// stress over a width-10 shell) next to one interior cell-step of the
// default blocked fd kernels on the same 48x48x32 subgrid, the ratio the
// "PML within 2x of interior" target tracks.
func BenchmarkPMLZone(b *testing.B) {
	d := grid.Dims{NX: 48, NY: 48, NZ: 32}
	m := layeredMedium(b, d, 200)
	dt := m.StableDt(0.45)
	zones, interior := BuildPML(d, AllAbsorbing(), DefaultPMLWidth, DefaultMPMLRatio, DefaultPMLReflection, m.MaxVp, 200)
	set := NewPMLSet(zones)
	s := randomState(d, 11)
	pmlCells := d.Cells() - interior.Cells()
	var pmlT, intT time.Duration
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		t0 := time.Now()
		fd.UpdateVelocity(s, m, dt, interior, fd.Blocked, fd.DefaultBlocking)
		fd.UpdateStress(s, m, dt, interior, fd.Blocked, fd.DefaultBlocking)
		t1 := time.Now()
		set.UpdateVelocity(s, m, dt, nil)
		set.UpdateStress(s, m, dt, nil)
		pmlT += time.Since(t1)
		intT += t1.Sub(t0)
	}
	pmlNs := float64(pmlT.Nanoseconds()) / float64(b.N) / float64(pmlCells)
	intNs := float64(intT.Nanoseconds()) / float64(b.N) / float64(interior.Cells())
	b.ReportMetric(pmlNs, "pml-ns/cell")
	b.ReportMetric(intNs, "interior-ns/cell")
	b.ReportMetric(pmlNs/intNs, "pml/interior")
}
