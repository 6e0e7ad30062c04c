package boundary

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core/fd"
	"repro/internal/core/sched"
	"repro/internal/cpufeat"
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

// setAVX2 selects the assembly row bodies (on) or the Go loops alone
// (off) for the rest of the test.
func setAVX2(tb testing.TB, on bool) {
	old := useAVX2
	useAVX2 = on
	tb.Cleanup(func() { useAVX2 = old })
}

// avx2Paths lists the row-body settings this host can run: the Go loops
// alone, and the assembly row bodies where the CPU has AVX2.
func avx2Paths() []bool {
	if cpufeat.AVX2 {
		return []bool{true, false}
	}
	return []bool{false}
}

// pathName labels a row-body setting in subtest and benchmark names.
func pathName(avx2 bool) string {
	if avx2 {
		return "avx2"
	}
	return "scalar"
}

// seedSubnormalRows scales blocks of 5x5 x-rows towards the float32
// subnormal range (|x| < 2^-126): rows whose padded (j, k) both fall in
// [5, 10) modulo 16, ghosts included, as in the fd row-body tests.
// Velocities become subnormal and stresses 1e7 larger, the ratio the
// wave impedance sets, so the velocity splits and recombined velocities
// of the next update are subnormal, and flush-to-zero or
// denormals-are-zero arithmetic would change them.
func seedSubnormalRows(s *fd.State) {
	for fi, f := range s.Fields() {
		scale := float32(1e-39)
		if fi >= 3 {
			scale = 1e-32
		}
		sx, sy, sz := f.PaddedDims()
		data := f.Data()
		for k := 0; k < sz; k++ {
			for j := 0; j < sy; j++ {
				if j%16 < 5 || j%16 >= 10 || k%16 < 5 || k%16 >= 10 {
					continue
				}
				row := data[(k*sy+j)*sx:][:sx]
				for i := range row {
					row[i] *= scale
				}
			}
		}
	}
}

// expectFieldsMatch asserts that got holds want's bits in every element
// of every field, ghosts included.
func expectFieldsMatch(t *testing.T, label string, got, want *fd.State) {
	t.Helper()
	for fi, f := range want.Fields() {
		w, g := f.Data(), got.Fields()[fi].Data()
		if bytes.Equal(float32Bytes(g), float32Bytes(w)) {
			continue
		}
		for n := range w {
			if math.Float32bits(g[n]) != math.Float32bits(w[n]) {
				t.Fatalf("%s: %s[%d]: %g, oracle %g", label, fd.FieldNames[fi], n, g[n], w[n])
			}
		}
	}
}

// float32Bytes views a as its bytes, so that a whole field compares with
// one memequal.
func float32Bytes(a []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(a))), 4*len(a))
}

// expectSplitsMatch asserts that every stored split of zones holds the
// oracle's bits, and that the three unstored splits are exactly +0 in the
// oracle.
func expectSplitsMatch(t *testing.T, label string, zones []*PML, oracles []*oraclePML) {
	t.Helper()
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
									t.Fatalf("%s: zone %d %s split %d: unstored split is %g, want +0",
										label, zi, fd.FieldNames[comp], s, of.At(li, lj, lk))
								}
								continue
							}
							if gv := math.Float32bits(sp[(lk*z.ny+lj)*z.nx+li]); gv != ov {
								t.Fatalf("%s: zone %d %s split %d at (%d,%d,%d) differs",
									label, zi, fd.FieldNames[comp], s, li, lj, lk)
							}
						}
					}
				}
			}
		}
	}
}

// TestPMLStripMatchesPerCellOracle: the strip kernels — on both row-body
// paths, as an inline and as a threaded row queue — reproduce the
// per-cell reference bit for bit, the fields after every update and every
// stored split at the end, over 50 steps in a layered medium, all six
// zone orientations, classic (P=0) and multi-axial (P=0.1) damping, and
// from a normal and (multi-axial) a subnormal-seeded state. Each width
// gets a grid whose y/z-zone rows are yz cells wide, so that x-zone rows
// (width cells) and y/z-zone rows together cover every masked tail length
// 0-7, alone and after full 8-cell iterations, production widths
// included: 10 (8+2) and 22 (16+6).
func TestPMLStripMatchesPerCellOracle(t *testing.T) {
	h := 100.0
	pool := sched.NewPool(3)
	defer pool.Close()
	cases := []struct{ width, yz int }{{3, 17}, {4, 9}, {5, 22}, {6, 11}, {7, 1}, {8, 16}, {DefaultPMLWidth, 9}}
	for _, c := range cases {
		d := grid.Dims{NX: 2*c.width + c.yz, NY: 2*c.width + 3, NZ: 2*c.width + 3}
		m := layeredMedium(t, d, h)
		dt := m.StableDt(0.45)
		for _, p := range []float64{0, DefaultMPMLRatio} {
			t.Run(fmt.Sprintf("w%d_p%g", c.width, p), func(t *testing.T) {
				for _, avx2 := range avx2Paths() {
					for _, sub := range []bool{false, true} {
						if sub && p == 0 {
							continue
						}
						name := pathName(avx2)
						if sub {
							name += "_subnormal"
						}
						t.Run(name, func(t *testing.T) {
							stripMatchesOracle(t, d, m, dt, c.width, p, sub, avx2, pool)
						})
					}
				}
			})
		}
	}
}

// stripMatchesOracle runs one case of TestPMLStripMatchesPerCellOracle.
func stripMatchesOracle(t *testing.T, d grid.Dims, m *medium.Medium, dt float64, width int, p float64,
	sub, avx2 bool, pool *sched.Pool) {
	const steps = 50
	all := FaceSet{XLo: true, XHi: true, YLo: true, YHi: true, ZLo: true, ZHi: true}
	setAVX2(t, avx2)
	zones, interior := BuildPML(d, all, width, p, DefaultPMLReflection, m.MaxVp, m.H)
	pooled, _ := BuildPML(d, all, width, p, DefaultPMLReflection, m.MaxVp, m.H)
	if len(zones) != 6 {
		t.Fatalf("%d zones, want all six orientations", len(zones))
	}
	oracles := make([]*oraclePML, len(zones))
	for i, z := range zones {
		oracles[i] = newOracle(z)
	}
	inline, queued := NewPMLSet(zones), NewPMLSet(pooled)

	got := randomState(d, 7)
	if sub {
		seedSubnormalRows(got)
	}
	want, par := got.Clone(), got.Clone()
	for n := 0; n < steps; n++ {
		for _, s := range []*fd.State{got, want, par} {
			fd.UpdateVelocity(s, m, dt, interior, fd.Precomp, fd.Blocking{})
		}
		inline.UpdateVelocity(got, m, dt, nil)
		queued.UpdateVelocity(par, m, dt, pool)
		for _, o := range oracles {
			o.UpdateVelocity(want, m, dt)
		}
		expectFieldsMatch(t, fmt.Sprintf("step %d velocity", n), got, want)
		for _, s := range []*fd.State{got, want, par} {
			fd.UpdateStress(s, m, dt, interior, fd.Precomp, fd.Blocking{})
		}
		inline.UpdateStress(got, m, dt, nil)
		queued.UpdateStress(par, m, dt, pool)
		for _, o := range oracles {
			o.UpdateStress(want, m, dt)
		}
		expectFieldsMatch(t, fmt.Sprintf("step %d stress", n), got, want)
	}
	expectSplitsMatch(t, "inline", zones, oracles)
	expectFieldsMatch(t, "row queue", par, want)
	expectSplitsMatch(t, "row queue", pooled, oracles)
}

// A zone step allocates nothing, on either row-body path: no row
// buffers, no closures, no tables.
func TestPMLStepAllocatesNothing(t *testing.T) {
	d := grid.Dims{NX: 24, NY: 20, NZ: 16}
	m := layeredMedium(t, d, 100)
	dt := m.StableDt(0.45)
	zones, _ := BuildPML(d, AllAbsorbing(), 5, DefaultMPMLRatio, DefaultPMLReflection, m.MaxVp, 100)
	s := randomState(d, 3)
	set := NewPMLSet(zones)
	for _, avx2 := range avx2Paths() {
		setAVX2(t, avx2)
		if a := testing.AllocsPerRun(10, func() {
			set.UpdateVelocity(s, m, dt, nil)
			set.UpdateStress(s, m, dt, nil)
		}); a != 0 {
			t.Errorf("%s zone step: %v allocs, want 0", pathName(avx2), a)
		}
	}
}

// BenchmarkPMLZone reports the cost of one M-PML cell-step (velocity +
// stress over a width-10 shell) next to one interior cell-step of the
// production fd kernels on the same 48x48x32 subgrid, with the zones on
// their AVX2 row bodies (avx2) and on the Go loops (scalar); the interior
// runs its production kernels in both. pml/interior is the ratio of the
// two per-cell costs.
func BenchmarkPMLZone(b *testing.B) {
	d := grid.Dims{NX: 48, NY: 48, NZ: 32}
	m := layeredMedium(b, d, 200)
	dt := m.StableDt(0.45)
	for _, avx2 := range avx2Paths() {
		b.Run(pathName(avx2), func(b *testing.B) {
			setAVX2(b, avx2)
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
		})
	}
}
