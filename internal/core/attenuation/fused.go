package attenuation

import (
	"fmt"

	"repro/internal/core/fd"
	"repro/internal/core/sched"
	"repro/internal/medium"
)

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
// checks, and the same two-entry per-row mechanism table as Apply.
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

	pari := (box.I0 + a.Origin[0]) & 1

	for k := box.K0; k < box.K1; k++ {
		for j := box.J0; j < box.J1; j++ {
			amP, cmP := a.rowMech(j, k)
			n0 := s.VX.Idx(box.I0, j, k)
			uc := u[n0:][:ni]
			um2x := u[n0-2:][:ni]
			um1x := u[n0-1:][:ni]
			up1x := u[n0+1:][:ni]
			um1y := u[n0-dy:][:ni]
			up1y := u[n0+dy:][:ni]
			up2y := u[n0+2*dy:][:ni]
			um1z := u[n0-dz:][:ni]
			up1z := u[n0+dz:][:ni]
			up2z := u[n0+2*dz:][:ni]
			vc := v[n0:][:ni]
			vm1x := v[n0-1:][:ni]
			vp1x := v[n0+1:][:ni]
			vp2x := v[n0+2:][:ni]
			vm2y := v[n0-2*dy:][:ni]
			vm1y := v[n0-dy:][:ni]
			vp1y := v[n0+dy:][:ni]
			vm1z := v[n0-dz:][:ni]
			vp1z := v[n0+dz:][:ni]
			vp2z := v[n0+2*dz:][:ni]
			wc := w[n0:][:ni]
			wm1x := w[n0-1:][:ni]
			wp1x := w[n0+1:][:ni]
			wp2x := w[n0+2:][:ni]
			wm1y := w[n0-dy:][:ni]
			wp1y := w[n0+dy:][:ni]
			wp2y := w[n0+2*dy:][:ni]
			wm2z := w[n0-2*dz:][:ni]
			wm1z := w[n0-dz:][:ni]
			wp1z := w[n0+dz:][:ni]
			xxr := xx[n0:][:ni]
			yyr := yy[n0:][:ni]
			zzr := zz[n0:][:ni]
			xyr := xy[n0:][:ni]
			xzr := xz[n0:][:ni]
			yzr := yz[n0:][:ni]
			lamr := lam[n0:][:ni]
			l2mr := l2m[n0:][:ni]
			mxyr := mxy[n0:][:ni]
			mxzr := mxz[n0:][:ni]
			myzr := myz[n0:][:ni]
			zxxr := zxx[n0:][:ni]
			zyyr := zyy[n0:][:ni]
			zzzr := zzz[n0:][:ni]
			zxyr := zxy[n0:][:ni]
			zxzr := zxz[n0:][:ni]
			zyzr := zyz[n0:][:ni]
			dlamr := dlam[n0:][:ni]
			dmur := dmu[n0:][:ni]
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
