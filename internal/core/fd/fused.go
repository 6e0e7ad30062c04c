package fd

import (
	"unsafe"

	"repro/internal/cpufeat"
	"repro/internal/medium"
)

// The row-window kernels are the production stencil path: every variant
// that reads the precomputed staggered coefficients (Fused, Precomp,
// Blocked, Unrolled) runs them. The whole-array form of the same stencil
// (see velocityDivide) indexes u[n±2*dz] etc., which the compiler cannot
// prove in-bounds, so every stencil load carries a bounds check. Here each
// (j,k) row instead slices one explicit length-nt window per field and
// stencil offset:
//
//	ap := a[n+off:][:nt]    // a[n+off+i] == ap[i]
//
// The two-step slice matters: the second slice's length is the literal SSA
// value nt, so with `for i := range center` the prove pass sees i < nt ==
// len(every window) and eliminates all inner-loop bounds checks (a single
// combined form a[lo:hi] leaves len as an opaque difference the prover
// cannot reduce). Verified by scripts/check_bce.sh with
// -gcflags=-d=ssa/check_bce; the remaining IsSliceInBounds checks fire once
// per row, not per point. The arithmetic is operand-for-operand that of the
// whole-array Naive/Recip kernels with their coefficient expressions
// replaced by the precomputed arrays, so results are bit-identical to them.
// The ghost frame (grid.Ghost = 2) guarantees every window of an interior
// box stays inside the backing array.
//
// On CPUs with AVX2 the first nv = ni&^7 cells of each row run through an
// 8-lane assembly row body (rows_amd64.s) and the Go loop covers the tail
// [nv, ni), hence the windows start at n = n0+nv and have length
// nt = ni-nv. The assembly reads the same windows from n0, through a
// table of window pointers at the box's first row (velRow, stressRow)
// plus the row's offset n0-nb; building the table bounds-checks each
// window once over the span of all rows the call covers. Each lane
// performs the Go loop's operations on the same operands in the same
// left-to-right order, with separate multiplies and adds (no FMA), under
// the default MXCSR (round to nearest, no flush-to-zero), so every result,
// subnormal ones included, is bit-identical to the Go loop's.

// useAVX2 selects the assembly row bodies. Tests clear it to run the Go
// loop over whole rows.
var useAVX2 = cpufeat.AVX2

// vecCells returns the number of leading cells of an ni-cell row that the
// assembly row bodies run: ni rounded down to a multiple of 8, or 0
// without AVX2.
func vecCells(ni int) int {
	if !useAVX2 {
		return 0
	}
	return ni &^ 7
}

// at returns the address of a[n] after checking that a[n:n+span] is in
// bounds, the range a vector row body reads through it.
func at(a []float32, n, span int) *float32 { return unsafe.SliceData(a[n:][:span]) }

// velRow holds the data pointers of velocityFused's stencil windows at the
// first cell of a box, for velocityRowAVX2. The assembly addresses the
// fields by their go_asm.h offsets.
type velRow struct {
	ur, vr, wr, bxr, byr, bzr *float32

	xxc, xxm1x, xxp1x, xxp2x                      *float32
	xyc, xym2x, xym1x, xyp1x, xym2y, xym1y, xyp1y *float32
	xzc, xzm2x, xzm1x, xzp1x, xzm2z, xzm1z, xzp1z *float32
	yyc, yym1y, yyp1y, yyp2y                      *float32
	yzc, yzm2y, yzm1y, yzp1y, yzm2z, yzm1z, yzp1z *float32
	zzc, zzm1z, zzp1z, zzp2z                      *float32
}

// stressRow is velRow for stressFused.
type stressRow struct {
	uc, um2x, um1x, up1x, um1y, up1y, up2y, um1z, up1z, up2z *float32
	vc, vm1x, vp1x, vp2x, vm2y, vm1y, vp1y, vm1z, vp1z, vp2z *float32
	wc, wm1x, wp1x, wp2x, wm1y, wp1y, wp2y, wm2z, wm1z, wp1z *float32

	xxr, yyr, zzr, xyr, xzr, yzr *float32
	lamr, l2mr, mxyr, mxzr, myzr *float32
}

// velocityFused is the production velocity kernel; b must not be empty.
func velocityFused(s *State, m *medium.Medium, dt float64, b Box) {
	dth := float32(dt / m.H)
	c1, c2 := float32(C1), float32(C2)
	u, v, w := s.VX.Data(), s.VY.Data(), s.VZ.Data()
	xx, yy, zz := s.XX.Data(), s.YY.Data(), s.ZZ.Data()
	xy, xz, yz := s.XY.Data(), s.XZ.Data(), s.YZ.Data()
	bx, by, bz := m.BX.Data(), m.BY.Data(), m.BZ.Data()
	_, dy, dz := s.VX.Strides()
	ni := b.I1 - b.I0
	nv := vecCells(ni)
	nt := ni - nv
	var nb int
	var tab velRow
	if nv > 0 {
		// The vector reads of all rows lie in [nb+off, nb+off+span) of
		// each window; at checks that range once per call.
		nb = s.VX.Idx(b.I0, b.J0, b.K0)
		span := s.VX.Idx(b.I0, b.J1-1, b.K1-1) - nb + ni
		tab = velRow{
			ur:    at(u, nb, span),
			vr:    at(v, nb, span),
			wr:    at(w, nb, span),
			bxr:   at(bx, nb, span),
			byr:   at(by, nb, span),
			bzr:   at(bz, nb, span),
			xxc:   at(xx, nb, span),
			xxm1x: at(xx, nb-1, span),
			xxp1x: at(xx, nb+1, span),
			xxp2x: at(xx, nb+2, span),
			xyc:   at(xy, nb, span),
			xym2x: at(xy, nb-2, span),
			xym1x: at(xy, nb-1, span),
			xyp1x: at(xy, nb+1, span),
			xym2y: at(xy, nb-2*dy, span),
			xym1y: at(xy, nb-dy, span),
			xyp1y: at(xy, nb+dy, span),
			xzc:   at(xz, nb, span),
			xzm2x: at(xz, nb-2, span),
			xzm1x: at(xz, nb-1, span),
			xzp1x: at(xz, nb+1, span),
			xzm2z: at(xz, nb-2*dz, span),
			xzm1z: at(xz, nb-dz, span),
			xzp1z: at(xz, nb+dz, span),
			yyc:   at(yy, nb, span),
			yym1y: at(yy, nb-dy, span),
			yyp1y: at(yy, nb+dy, span),
			yyp2y: at(yy, nb+2*dy, span),
			yzc:   at(yz, nb, span),
			yzm2y: at(yz, nb-2*dy, span),
			yzm1y: at(yz, nb-dy, span),
			yzp1y: at(yz, nb+dy, span),
			yzm2z: at(yz, nb-2*dz, span),
			yzm1z: at(yz, nb-dz, span),
			yzp1z: at(yz, nb+dz, span),
			zzc:   at(zz, nb, span),
			zzm1z: at(zz, nb-dz, span),
			zzp1z: at(zz, nb+dz, span),
			zzp2z: at(zz, nb+2*dz, span),
		}
	}

	for k := b.K0; k < b.K1; k++ {
		for j := b.J0; j < b.J1; j++ {
			n0 := s.VX.Idx(b.I0, j, k)
			if nv > 0 {
				velocityRowAVX2(&tab, n0-nb, nv, dth, c1, c2)
			}
			if nt == 0 {
				continue
			}
			n := n0 + nv
			ur := u[n:][:nt]
			vr := v[n:][:nt]
			wr := w[n:][:nt]
			bxr := bx[n:][:nt]
			byr := by[n:][:nt]
			bzr := bz[n:][:nt]
			xxc := xx[n:][:nt]
			xxm1x := xx[n-1:][:nt]
			xxp1x := xx[n+1:][:nt]
			xxp2x := xx[n+2:][:nt]
			xyc := xy[n:][:nt]
			xym2x := xy[n-2:][:nt]
			xym1x := xy[n-1:][:nt]
			xyp1x := xy[n+1:][:nt]
			xym2y := xy[n-2*dy:][:nt]
			xym1y := xy[n-dy:][:nt]
			xyp1y := xy[n+dy:][:nt]
			xzc := xz[n:][:nt]
			xzm2x := xz[n-2:][:nt]
			xzm1x := xz[n-1:][:nt]
			xzp1x := xz[n+1:][:nt]
			xzm2z := xz[n-2*dz:][:nt]
			xzm1z := xz[n-dz:][:nt]
			xzp1z := xz[n+dz:][:nt]
			yyc := yy[n:][:nt]
			yym1y := yy[n-dy:][:nt]
			yyp1y := yy[n+dy:][:nt]
			yyp2y := yy[n+2*dy:][:nt]
			yzc := yz[n:][:nt]
			yzm2y := yz[n-2*dy:][:nt]
			yzm1y := yz[n-dy:][:nt]
			yzp1y := yz[n+dy:][:nt]
			yzm2z := yz[n-2*dz:][:nt]
			yzm1z := yz[n-dz:][:nt]
			yzp1z := yz[n+dz:][:nt]
			zzc := zz[n:][:nt]
			zzm1z := zz[n-dz:][:nt]
			zzp1z := zz[n+dz:][:nt]
			zzp2z := zz[n+2*dz:][:nt]
			for i := range ur {
				ur[i] += dth * bxr[i] * (c1*(xxp1x[i]-xxc[i]) + c2*(xxp2x[i]-xxm1x[i]) +
					c1*(xyc[i]-xym1y[i]) + c2*(xyp1y[i]-xym2y[i]) +
					c1*(xzc[i]-xzm1z[i]) + c2*(xzp1z[i]-xzm2z[i]))
				vr[i] += dth * byr[i] * (c1*(xyc[i]-xym1x[i]) + c2*(xyp1x[i]-xym2x[i]) +
					c1*(yyp1y[i]-yyc[i]) + c2*(yyp2y[i]-yym1y[i]) +
					c1*(yzc[i]-yzm1z[i]) + c2*(yzp1z[i]-yzm2z[i]))
				wr[i] += dth * bzr[i] * (c1*(xzc[i]-xzm1x[i]) + c2*(xzp1x[i]-xzm2x[i]) +
					c1*(yzc[i]-yzm1y[i]) + c2*(yzp1y[i]-yzm2y[i]) +
					c1*(zzp1z[i]-zzc[i]) + c2*(zzp2z[i]-zzm1z[i]))
			}
		}
	}
}

// stressFused is the production stress kernel; b must not be empty. It
// performs only the elastic update; when attenuation is enabled the
// solver calls attenuation.FusedStress instead, which folds the
// memory-variable update into the same i-loop.
func stressFused(s *State, m *medium.Medium, dt float64, b Box) {
	dth := float32(dt / m.H)
	c1, c2 := float32(C1), float32(C2)
	u, v, w := s.VX.Data(), s.VY.Data(), s.VZ.Data()
	xx, yy, zz := s.XX.Data(), s.YY.Data(), s.ZZ.Data()
	xy, xz, yz := s.XY.Data(), s.XZ.Data(), s.YZ.Data()
	lam, l2m := m.Lam.Data(), m.Lam2Mu.Data()
	mxy, mxz, myz := m.MuXY.Data(), m.MuXZ.Data(), m.MuYZ.Data()
	_, dy, dz := s.VX.Strides()
	ni := b.I1 - b.I0
	nv := vecCells(ni)
	nt := ni - nv
	var nb int
	var tab stressRow
	if nv > 0 {
		// The vector reads of all rows lie in [nb+off, nb+off+span) of
		// each window; at checks that range once per call.
		nb = s.VX.Idx(b.I0, b.J0, b.K0)
		span := s.VX.Idx(b.I0, b.J1-1, b.K1-1) - nb + ni
		tab = stressRow{
			uc:   at(u, nb, span),
			um2x: at(u, nb-2, span),
			um1x: at(u, nb-1, span),
			up1x: at(u, nb+1, span),
			um1y: at(u, nb-dy, span),
			up1y: at(u, nb+dy, span),
			up2y: at(u, nb+2*dy, span),
			um1z: at(u, nb-dz, span),
			up1z: at(u, nb+dz, span),
			up2z: at(u, nb+2*dz, span),
			vc:   at(v, nb, span),
			vm1x: at(v, nb-1, span),
			vp1x: at(v, nb+1, span),
			vp2x: at(v, nb+2, span),
			vm2y: at(v, nb-2*dy, span),
			vm1y: at(v, nb-dy, span),
			vp1y: at(v, nb+dy, span),
			vm1z: at(v, nb-dz, span),
			vp1z: at(v, nb+dz, span),
			vp2z: at(v, nb+2*dz, span),
			wc:   at(w, nb, span),
			wm1x: at(w, nb-1, span),
			wp1x: at(w, nb+1, span),
			wp2x: at(w, nb+2, span),
			wm1y: at(w, nb-dy, span),
			wp1y: at(w, nb+dy, span),
			wp2y: at(w, nb+2*dy, span),
			wm2z: at(w, nb-2*dz, span),
			wm1z: at(w, nb-dz, span),
			wp1z: at(w, nb+dz, span),
			xxr:  at(xx, nb, span),
			yyr:  at(yy, nb, span),
			zzr:  at(zz, nb, span),
			xyr:  at(xy, nb, span),
			xzr:  at(xz, nb, span),
			yzr:  at(yz, nb, span),
			lamr: at(lam, nb, span),
			l2mr: at(l2m, nb, span),
			mxyr: at(mxy, nb, span),
			mxzr: at(mxz, nb, span),
			myzr: at(myz, nb, span),
		}
	}

	for k := b.K0; k < b.K1; k++ {
		for j := b.J0; j < b.J1; j++ {
			n0 := s.VX.Idx(b.I0, j, k)
			if nv > 0 {
				stressRowAVX2(&tab, n0-nb, nv, dth, c1, c2)
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
			for i := range xxr {
				exx := c1*(uc[i]-um1x[i]) + c2*(up1x[i]-um2x[i])
				eyy := c1*(vc[i]-vm1y[i]) + c2*(vp1y[i]-vm2y[i])
				ezz := c1*(wc[i]-wm1z[i]) + c2*(wp1z[i]-wm2z[i])
				xxr[i] += dth * (l2mr[i]*exx + lamr[i]*(eyy+ezz))
				yyr[i] += dth * (l2mr[i]*eyy + lamr[i]*(exx+ezz))
				zzr[i] += dth * (l2mr[i]*ezz + lamr[i]*(exx+eyy))
				xyr[i] += dth * mxyr[i] * (c1*(up1y[i]-uc[i]) + c2*(up2y[i]-um1y[i]) +
					c1*(vp1x[i]-vc[i]) + c2*(vp2x[i]-vm1x[i]))
				xzr[i] += dth * mxzr[i] * (c1*(up1z[i]-uc[i]) + c2*(up2z[i]-um1z[i]) +
					c1*(wp1x[i]-wc[i]) + c2*(wp2x[i]-wm1x[i]))
				yzr[i] += dth * myzr[i] * (c1*(vp1z[i]-vc[i]) + c2*(vp2z[i]-vm1z[i]) +
					c1*(wp1y[i]-wc[i]) + c2*(wp2y[i]-wm1y[i]))
			}
		}
	}
}
