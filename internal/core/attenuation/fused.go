package attenuation

import (
	"fmt"
	"unsafe"

	"repro/internal/core/fd"
	"repro/internal/core/sched"
	"repro/internal/cpufeat"
	"repro/internal/medium"
)

// useAVX2 selects the assembly row body of FusedStress. Tests clear it to
// run the Go loop over whole rows.
var useAVX2 = cpufeat.AVX2

// vecCells returns the number of leading cells of an ni-cell row that the
// assembly row body runs: ni rounded down to a multiple of 8, or 0 without
// AVX2.
func vecCells(ni int) int {
	if !useAVX2 {
		return 0
	}
	return ni &^ 7
}

// at returns the address of a[n] after checking that a[n:n+span] is in
// bounds, the range a vector row body reads through it.
func at(a []float32, n, span int) *float32 { return unsafe.SliceData(a[n:][:span]) }

// fusedRow holds the data pointers of FusedStress's stencil windows at the
// first cell of a box and the current row's 8-lane mechanism
// coefficients, for fusedStressRowAVX2. The assembly addresses the fields by their go_asm.h
// offsets.
type fusedRow struct {
	uc, um2x, um1x, up1x, um1y, up1y, up2y, um1z, up1z, up2z *float32
	vc, vm1x, vp1x, vp2x, vm2y, vm1y, vp1y, vm1z, vp1z, vp2z *float32
	wc, wm1x, wp1x, wp2x, wm1y, wp1y, wp2y, wm2z, wm1z, wp1z *float32

	xxr, yyr, zzr, xyr, xzr, yzr       *float32
	lamr, l2mr, mxyr, mxzr, myzr       *float32
	zxxr, zyyr, zzzr, zxyr, zxzr, zyzr *float32
	dlamr, dmur                        *float32

	am, cm [8]float32
}

// FusedStress advances the six stress components and the coarse-grained
// memory variables over box in a single sweep: the Day (1998) update runs
// point-by-point inside the same i-loop as the elastic constitutive update,
// so each stress value is read, corrected, and written once per step
// instead of twice (one read/modify/write of XX..YZ instead of the
// UpdateStress + Apply pair re-streaming all six fields).
//
// Results are bit-identical to fd.UpdateStress followed by Apply over the
// same box, for every kernel variant:
//
//   - The elastic update at point n reads only velocities and material
//     arrays and writes stress at n; the memory-variable update reads only
//     velocities, DLam/DMu, and the stress/memory variable at n. No point
//     reads another point's stress, so interleaving per point cannot change
//     any operand.
//   - The two passes scale derivatives by the same constant (dth == dh ==
//     float32(dt/m.H)) from identical difference expressions, so reusing the
//     elastic derivative sums here (aexx = dth*exx, ...) reproduces the
//     two-pass strain increments bit-for-bit. The Go compiler does not
//     contract float32 multiply-adds on amd64/arm64, so identical
//     expressions round identically.
//
// The loop uses the same per-row, per-offset subslice windows as the fd
// production kernels (see fd/fused.go) so the inner loop carries no bounds
// checks, and the same two-entry per-row mechanism table as Apply. As in
// fd, with AVX2 the first nv = ni&^7 cells of each row run through an
// 8-lane assembly row body (fused_amd64.s) that keeps the Go loop's
// operands, order and rounding; the Go loop runs the tail [nv, ni). Each
// 8-cell chunk starts at an even offset from box.I0, so lane l of every
// chunk selects mechanism parity (l+pari)&1, and the row's am/cm vectors
// are built once from rowMech; for the same reason the tail loop's
// window-relative i has the parity of the row-relative cell index.
func (a *Model) FusedStress(s *fd.State, m *medium.Medium, dt float64, box fd.Box) {
	if dt != a.dt {
		panic(fmt.Sprintf("attenuation: model built for dt=%g, called with %g", a.dt, dt))
	}
	if box.Empty() {
		return
	}
	dth := float32(dt / m.H)
	c1, c2 := float32(fd.C1), float32(fd.C2)
	u, v, w := s.VX.Data(), s.VY.Data(), s.VZ.Data()
	xx, yy, zz := s.XX.Data(), s.YY.Data(), s.ZZ.Data()
	xy, xz, yz := s.XY.Data(), s.XZ.Data(), s.YZ.Data()
	lam, l2m := m.Lam.Data(), m.Lam2Mu.Data()
	mxy, mxz, myz := m.MuXY.Data(), m.MuXZ.Data(), m.MuYZ.Data()
	zxx, zyy, zzz := a.ZXX.Data(), a.ZYY.Data(), a.ZZZ.Data()
	zxy, zxz, zyz := a.ZXY.Data(), a.ZXZ.Data(), a.ZYZ.Data()
	dlam, dmu := a.DLam.Data(), a.DMu.Data()
	_, dy, dz := s.VX.Strides()
	ni := box.I1 - box.I0
	nv := vecCells(ni)
	nt := ni - nv

	pari := (box.I0 + a.Origin[0]) & 1
	var nb int
	var tab fusedRow
	if nv > 0 {
		// The vector reads of all rows lie in [nb+off, nb+off+span) of
		// each window; at checks that range once per call.
		nb = s.VX.Idx(box.I0, box.J0, box.K0)
		span := s.VX.Idx(box.I0, box.J1-1, box.K1-1) - nb + ni
		tab = fusedRow{
			uc:    at(u, nb, span),
			um2x:  at(u, nb-2, span),
			um1x:  at(u, nb-1, span),
			up1x:  at(u, nb+1, span),
			um1y:  at(u, nb-dy, span),
			up1y:  at(u, nb+dy, span),
			up2y:  at(u, nb+2*dy, span),
			um1z:  at(u, nb-dz, span),
			up1z:  at(u, nb+dz, span),
			up2z:  at(u, nb+2*dz, span),
			vc:    at(v, nb, span),
			vm1x:  at(v, nb-1, span),
			vp1x:  at(v, nb+1, span),
			vp2x:  at(v, nb+2, span),
			vm2y:  at(v, nb-2*dy, span),
			vm1y:  at(v, nb-dy, span),
			vp1y:  at(v, nb+dy, span),
			vm1z:  at(v, nb-dz, span),
			vp1z:  at(v, nb+dz, span),
			vp2z:  at(v, nb+2*dz, span),
			wc:    at(w, nb, span),
			wm1x:  at(w, nb-1, span),
			wp1x:  at(w, nb+1, span),
			wp2x:  at(w, nb+2, span),
			wm1y:  at(w, nb-dy, span),
			wp1y:  at(w, nb+dy, span),
			wp2y:  at(w, nb+2*dy, span),
			wm2z:  at(w, nb-2*dz, span),
			wm1z:  at(w, nb-dz, span),
			wp1z:  at(w, nb+dz, span),
			xxr:   at(xx, nb, span),
			yyr:   at(yy, nb, span),
			zzr:   at(zz, nb, span),
			xyr:   at(xy, nb, span),
			xzr:   at(xz, nb, span),
			yzr:   at(yz, nb, span),
			lamr:  at(lam, nb, span),
			l2mr:  at(l2m, nb, span),
			mxyr:  at(mxy, nb, span),
			mxzr:  at(mxz, nb, span),
			myzr:  at(myz, nb, span),
			zxxr:  at(zxx, nb, span),
			zyyr:  at(zyy, nb, span),
			zzzr:  at(zzz, nb, span),
			zxyr:  at(zxy, nb, span),
			zxzr:  at(zxz, nb, span),
			zyzr:  at(zyz, nb, span),
			dlamr: at(dlam, nb, span),
			dmur:  at(dmu, nb, span),
		}
	}

	for k := box.K0; k < box.K1; k++ {
		for j := box.J0; j < box.J1; j++ {
			amP, cmP := a.rowMech(j, k)
			n0 := s.VX.Idx(box.I0, j, k)
			if nv > 0 {
				for l := range tab.am {
					tab.am[l], tab.cm[l] = amP[(l+pari)&1], cmP[(l+pari)&1]
				}
				fusedStressRowAVX2(&tab, n0-nb, nv, dth, c1, c2)
			}
			if nt == 0 {
				continue
			}
			n := n0 + nv
			uc := u[n:][:nt]
			um2x := u[n-2:][:nt]
			um1x := u[n-1:][:nt]
			up1x := u[n+1:][:nt]
			um1y := u[n-dy:][:nt]
			up1y := u[n+dy:][:nt]
			up2y := u[n+2*dy:][:nt]
			um1z := u[n-dz:][:nt]
			up1z := u[n+dz:][:nt]
			up2z := u[n+2*dz:][:nt]
			vc := v[n:][:nt]
			vm1x := v[n-1:][:nt]
			vp1x := v[n+1:][:nt]
			vp2x := v[n+2:][:nt]
			vm2y := v[n-2*dy:][:nt]
			vm1y := v[n-dy:][:nt]
			vp1y := v[n+dy:][:nt]
			vm1z := v[n-dz:][:nt]
			vp1z := v[n+dz:][:nt]
			vp2z := v[n+2*dz:][:nt]
			wc := w[n:][:nt]
			wm1x := w[n-1:][:nt]
			wp1x := w[n+1:][:nt]
			wp2x := w[n+2:][:nt]
			wm1y := w[n-dy:][:nt]
			wp1y := w[n+dy:][:nt]
			wp2y := w[n+2*dy:][:nt]
			wm2z := w[n-2*dz:][:nt]
			wm1z := w[n-dz:][:nt]
			wp1z := w[n+dz:][:nt]
			xxr := xx[n:][:nt]
			yyr := yy[n:][:nt]
			zzr := zz[n:][:nt]
			xyr := xy[n:][:nt]
			xzr := xz[n:][:nt]
			yzr := yz[n:][:nt]
			lamr := lam[n:][:nt]
			l2mr := l2m[n:][:nt]
			mxyr := mxy[n:][:nt]
			mxzr := mxz[n:][:nt]
			myzr := myz[n:][:nt]
			zxxr := zxx[n:][:nt]
			zyyr := zyy[n:][:nt]
			zzzr := zzz[n:][:nt]
			zxyr := zxy[n:][:nt]
			zxzr := zxz[n:][:nt]
			zyzr := zyz[n:][:nt]
			dlamr := dlam[n:][:nt]
			dmur := dmu[n:][:nt]
			for i := range xxr {
				// Elastic constitutive update (== fd.UpdateStress).
				exx := c1*(uc[i]-um1x[i]) + c2*(up1x[i]-um2x[i])
				eyy := c1*(vc[i]-vm1y[i]) + c2*(vp1y[i]-vm2y[i])
				ezz := c1*(wc[i]-wm1z[i]) + c2*(wp1z[i]-wm2z[i])
				dxy := c1*(up1y[i]-uc[i]) + c2*(up2y[i]-um1y[i]) +
					c1*(vp1x[i]-vc[i]) + c2*(vp2x[i]-vm1x[i])
				dxz := c1*(up1z[i]-uc[i]) + c2*(up2z[i]-um1z[i]) +
					c1*(wp1x[i]-wc[i]) + c2*(wp2x[i]-wm1x[i])
				dyz := c1*(vp1z[i]-vc[i]) + c2*(vp2z[i]-vm1z[i]) +
					c1*(wp1y[i]-wc[i]) + c2*(wp2y[i]-wm1y[i])
				// The elastic result stays in registers; each stress is
				// stored once, after its memory-variable correction.
				sxx := xxr[i] + dth*(l2mr[i]*exx+lamr[i]*(eyy+ezz))
				syy := yyr[i] + dth*(l2mr[i]*eyy+lamr[i]*(exx+ezz))
				szz := zzr[i] + dth*(l2mr[i]*ezz+lamr[i]*(exx+eyy))
				sxy := xyr[i] + dth*mxyr[i]*dxy
				sxz := xzr[i] + dth*mxzr[i]*dxz
				syz := yzr[i] + dth*myzr[i]*dyz

				// Memory-variable update (== Apply) on the just-updated
				// stress: zeta' = am*zeta + cm*drive, sigma += zeta' - zeta.
				p := (i + pari) & 1
				am, cm := amP[p], cmP[p]
				aexx := dth * exx
				aeyy := dth * eyy
				aezz := dth * ezz
				dl2m := dlamr[i] + 2*dmur[i]
				trace := dlamr[i] * (aexx + aeyy + aezz)
				zn := am*zxxr[i] + cm*(dl2m*aexx+trace-dlamr[i]*aexx)
				xxr[i] = sxx + (zn - zxxr[i])
				zxxr[i] = zn
				zn = am*zyyr[i] + cm*(dl2m*aeyy+trace-dlamr[i]*aeyy)
				yyr[i] = syy + (zn - zyyr[i])
				zyyr[i] = zn
				zn = am*zzzr[i] + cm*(dl2m*aezz+trace-dlamr[i]*aezz)
				zzr[i] = szz + (zn - zzzr[i])
				zzzr[i] = zn
				zn = am*zxyr[i] + cm*(dmur[i]*(dth*dxy))
				xyr[i] = sxy + (zn - zxyr[i])
				zxyr[i] = zn
				zn = am*zxzr[i] + cm*(dmur[i]*(dth*dxz))
				xzr[i] = sxz + (zn - zxzr[i])
				zxzr[i] = zn
				zn = am*zyzr[i] + cm*(dmur[i]*(dth*dyz))
				yzr[i] = syz + (zn - zyzr[i])
				zyzr[i] = zn
			}
		}
	}
}

// FusedStressTiled runs FusedStress over the j/k tiles of box on the
// persistent pool. Stress and memory-variable writes are per-point, so any
// disjoint tiling is race-free and bit-identical to FusedStress.
func (a *Model) FusedStressTiled(s *fd.State, m *medium.Medium, dt float64, box fd.Box, blk fd.Blocking, p *sched.Pool) {
	fd.ForEachTile(box, blk, p, func(b fd.Box) {
		a.FusedStress(s, m, dt, b)
	})
}
