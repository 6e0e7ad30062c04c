package boundary

import (
	"repro/internal/core/fd"
	"repro/internal/medium"
)

// Strip kernels of the PML zones. A zone is updated one x-row (fixed
// zone-local lj, lk) at a time, written in the fd/fused.go idiom: every
// operand is an explicit length-ni window
//
//	ap := a[n0+off:][:ni]    // a[n+off] == ap[i],  i = n-n0
//
// so the prove pass eliminates all per-point bounds checks in the
// `for i := range out` loops (scripts/check_bce.sh guards this file). The
// arithmetic is operand-for-operand that of the per-cell reference (the
// oracle in pml_test.go), so results are bit-identical to it. Each kernel
// has two loops: an x zone's coefficients vary along the row and are
// indexed per i; a y or z zone's are constant along it and are hoisted.
//
// Recombination and signed zeros: a component is the sum of its splits,
// accumulated from +0 in split order 0,1,2 — hence the leading `0 +`. An
// accumulator that starts at +0 is never -0 (x + y is -0 only when both
// are -0), and adding +0 to anything but -0 returns it unchanged. The
// three splits without a source term (sxy_z, sxz_y, syz_x) start at +0
// and stay exactly +0 (dec*(+0) + gain*(+0) with gain > 0 is +0), so
// leaving them out of the sums changes no bit, and they are not stored.

// Difference directions: the lowest stencil offset of a forward
// (a[n+1]-a[n], a[n+2]-a[n-1]) and a backward (a[n]-a[n-1],
// a[n+1]-a[n-2]) 4th-order staggered difference.
const (
	fwd = -1
	bwd = -2
)

// d4 is the 4th-order staggered difference c1*(w2-w1) + c2*(w3-w0) of
// four stencil values.
func d4(w0, w1, w2, w3 float32) float32 {
	const c1, c2 = float32(fd.C1), float32(fd.C2)
	return c1*(w2-w1) + c2*(w3-w0)
}

// stencil returns the four row windows a[n0+(lo+q)*st:][:ni], q = 0..3,
// of a difference along stride st starting at offset lo (fwd or bwd);
// either way the difference at i is d4(w[0][i], w[1][i], w[2][i], w[3][i]).
func stencil(a []float32, n0, st, lo, ni int) [4][]float32 {
	n := n0 + lo*st
	return [4][]float32{a[n:][:ni], a[n+st:][:ni], a[n+2*st:][:ni], a[n+3*st:][:ni]}
}

// velocityRow advances the velocity splits of the zone's x-row (lj, lk)
// and writes the recombined velocities to s.
func (pm *PML) velocityRow(s *fd.State, m *medium.Medium, dth float32, lj, lk int) {
	z := pm.Zone
	ni := pm.nx
	n0 := s.VX.Idx(z.I0, z.J0+lj, z.K0+lk)
	_, dy, dz := s.VX.Strides()
	o := (lk*pm.ny + lj) * ni
	dec, gain := pm.rowCoefs(lj, lk)
	xx, yy, zz := s.XX.Data(), s.YY.Data(), s.ZZ.Data()
	xy, xz, yz := s.XY.Data(), s.XZ.Data(), s.YZ.Data()
	velocitySplits(s.VX.Data()[n0:][:ni], m.BX.Data()[n0:][:ni], dth, &[3][4][]float32{
		stencil(xx, n0, 1, fwd, ni), stencil(xy, n0, dy, bwd, ni), stencil(xz, n0, dz, bwd, ni),
	}, &pm.vel[0], o, &dec, &gain)
	velocitySplits(s.VY.Data()[n0:][:ni], m.BY.Data()[n0:][:ni], dth, &[3][4][]float32{
		stencil(xy, n0, 1, bwd, ni), stencil(yy, n0, dy, fwd, ni), stencil(yz, n0, dz, bwd, ni),
	}, &pm.vel[1], o, &dec, &gain)
	velocitySplits(s.VZ.Data()[n0:][:ni], m.BZ.Data()[n0:][:ni], dth, &[3][4][]float32{
		stencil(xz, n0, 1, bwd, ni), stencil(yz, n0, dy, bwd, ni), stencil(zz, n0, dz, fwd, ni),
	}, &pm.vel[2], o, &dec, &gain)
}

// velocitySplits advances the three splits of one velocity component
// over a row, split_s = dec_s*split_s + gain_s*(dth*b)*D_s with D_s the
// difference over windows w[s], and stores their sum to out.
func velocitySplits(out, b []float32, dth float32, w *[3][4][]float32, sp *[3][]float32, o int, dec, gain *[3][]float32) {
	ni := len(out)
	br := b[:ni]
	x0, x1, x2, x3 := w[0][0][:ni], w[0][1][:ni], w[0][2][:ni], w[0][3][:ni]
	y0, y1, y2, y3 := w[1][0][:ni], w[1][1][:ni], w[1][2][:ni], w[1][3][:ni]
	z0, z1, z2, z3 := w[2][0][:ni], w[2][1][:ni], w[2][2][:ni], w[2][3][:ni]
	sx, sy, sz := sp[0][o:][:ni], sp[1][o:][:ni], sp[2][o:][:ni]
	if len(dec[0]) == 1 {
		dx, dy, dz := dec[0][:1][0], dec[1][:1][0], dec[2][:1][0]
		gx, gy, gz := gain[0][:1][0], gain[1][:1][0], gain[2][:1][0]
		for i := range out {
			bi := dth * br[i]
			nx := dx*sx[i] + gx*(bi*d4(x0[i], x1[i], x2[i], x3[i]))
			ny := dy*sy[i] + gy*(bi*d4(y0[i], y1[i], y2[i], y3[i]))
			nz := dz*sz[i] + gz*(bi*d4(z0[i], z1[i], z2[i], z3[i]))
			sx[i], sy[i], sz[i] = nx, ny, nz
			out[i] = 0 + nx + ny + nz
		}
		return
	}
	dx, dy, dz := dec[0][:ni], dec[1][:ni], dec[2][:ni]
	gx, gy, gz := gain[0][:ni], gain[1][:ni], gain[2][:ni]
	for i := range out {
		bi := dth * br[i]
		nx := dx[i]*sx[i] + gx[i]*(bi*d4(x0[i], x1[i], x2[i], x3[i]))
		ny := dy[i]*sy[i] + gy[i]*(bi*d4(y0[i], y1[i], y2[i], y3[i]))
		nz := dz[i]*sz[i] + gz[i]*(bi*d4(z0[i], z1[i], z2[i], z3[i]))
		sx[i], sy[i], sz[i] = nx, ny, nz
		out[i] = 0 + nx + ny + nz
	}
}

// stressRow advances the stress splits of the zone's x-row (lj, lk) and
// writes the recombined stresses to s.
func (pm *PML) stressRow(s *fd.State, m *medium.Medium, dth float32, lj, lk int) {
	z := pm.Zone
	ni := pm.nx
	n0 := s.VX.Idx(z.I0, z.J0+lj, z.K0+lk)
	_, dy, dz := s.VX.Strides()
	o := (lk*pm.ny + lj) * ni
	dec, gain := pm.rowCoefs(lj, lk)
	u, v, w := s.VX.Data(), s.VY.Data(), s.VZ.Data()
	row := func(a []float32) []float32 { return a[n0:][:ni] }
	normalSplits(row(s.XX.Data()), row(s.YY.Data()), row(s.ZZ.Data()),
		row(m.Lam.Data()), row(m.Lam2Mu.Data()), dth,
		&[3][4][]float32{stencil(u, n0, 1, bwd, ni), stencil(v, n0, dy, bwd, ni), stencil(w, n0, dz, bwd, ni)},
		&pm.nrm, o, &dec, &gain)
	shearSplits(row(s.XY.Data()), row(m.MuXY.Data()), dth,
		&[2][4][]float32{stencil(v, n0, 1, fwd, ni), stencil(u, n0, dy, fwd, ni)},
		&pm.shr[0], o, dec[0], gain[0], dec[1], gain[1])
	shearSplits(row(s.XZ.Data()), row(m.MuXZ.Data()), dth,
		&[2][4][]float32{stencil(w, n0, 1, fwd, ni), stencil(u, n0, dz, fwd, ni)},
		&pm.shr[1], o, dec[0], gain[0], dec[2], gain[2])
	shearSplits(row(s.YZ.Data()), row(m.MuYZ.Data()), dth,
		&[2][4][]float32{stencil(w, n0, dy, fwd, ni), stencil(v, n0, dz, fwd, ni)},
		&pm.shr[2], o, dec[1], gain[1], dec[2], gain[2])
}

// normalSplits advances the nine splits of the normal stresses over a
// row. The strains exx, eyy, ezz (differences over e[0], e[1], e[2]
// scaled by dth) feed split x, y, z of each component with modulus l2m on
// the diagonal and lam off it.
func normalSplits(xx, yy, zz, lam, l2m []float32, dth float32, e *[3][4][]float32,
	sp *[3][3][]float32, o int, dec, gain *[3][]float32) {
	ni := len(xx)
	yyr, zzr := yy[:ni], zz[:ni]
	lamr, l2mr := lam[:ni], l2m[:ni]
	ux0, ux1, ux2, ux3 := e[0][0][:ni], e[0][1][:ni], e[0][2][:ni], e[0][3][:ni]
	vy0, vy1, vy2, vy3 := e[1][0][:ni], e[1][1][:ni], e[1][2][:ni], e[1][3][:ni]
	wz0, wz1, wz2, wz3 := e[2][0][:ni], e[2][1][:ni], e[2][2][:ni], e[2][3][:ni]
	xx0, xx1, xx2 := sp[0][0][o:][:ni], sp[0][1][o:][:ni], sp[0][2][o:][:ni]
	yy0, yy1, yy2 := sp[1][0][o:][:ni], sp[1][1][o:][:ni], sp[1][2][o:][:ni]
	zz0, zz1, zz2 := sp[2][0][o:][:ni], sp[2][1][o:][:ni], sp[2][2][o:][:ni]
	if len(dec[0]) == 1 {
		dx, dy, dz := dec[0][:1][0], dec[1][:1][0], dec[2][:1][0]
		gx, gy, gz := gain[0][:1][0], gain[1][:1][0], gain[2][:1][0]
		for i := range xx {
			exx := dth * d4(ux0[i], ux1[i], ux2[i], ux3[i])
			eyy := dth * d4(vy0[i], vy1[i], vy2[i], vy3[i])
			ezz := dth * d4(wz0[i], wz1[i], wz2[i], wz3[i])
			la, l2 := lamr[i], l2mr[i]
			lx, ly, lz := la*exx, la*eyy, la*ezz
			a0, a1, a2 := dx*xx0[i]+gx*(l2*exx), dy*xx1[i]+gy*ly, dz*xx2[i]+gz*lz
			b0, b1, b2 := dx*yy0[i]+gx*lx, dy*yy1[i]+gy*(l2*eyy), dz*yy2[i]+gz*lz
			e0, e1, e2 := dx*zz0[i]+gx*lx, dy*zz1[i]+gy*ly, dz*zz2[i]+gz*(l2*ezz)
			xx0[i], xx1[i], xx2[i] = a0, a1, a2
			yy0[i], yy1[i], yy2[i] = b0, b1, b2
			zz0[i], zz1[i], zz2[i] = e0, e1, e2
			xx[i], yyr[i], zzr[i] = 0+a0+a1+a2, 0+b0+b1+b2, 0+e0+e1+e2
		}
		return
	}
	dx, dy, dz := dec[0][:ni], dec[1][:ni], dec[2][:ni]
	gx, gy, gz := gain[0][:ni], gain[1][:ni], gain[2][:ni]
	for i := range xx {
		exx := dth * d4(ux0[i], ux1[i], ux2[i], ux3[i])
		eyy := dth * d4(vy0[i], vy1[i], vy2[i], vy3[i])
		ezz := dth * d4(wz0[i], wz1[i], wz2[i], wz3[i])
		la, l2 := lamr[i], l2mr[i]
		lx, ly, lz := la*exx, la*eyy, la*ezz
		a0, a1, a2 := dx[i]*xx0[i]+gx[i]*(l2*exx), dy[i]*xx1[i]+gy[i]*ly, dz[i]*xx2[i]+gz[i]*lz
		b0, b1, b2 := dx[i]*yy0[i]+gx[i]*lx, dy[i]*yy1[i]+gy[i]*(l2*eyy), dz[i]*yy2[i]+gz[i]*lz
		e0, e1, e2 := dx[i]*zz0[i]+gx[i]*lx, dy[i]*zz1[i]+gy[i]*ly, dz[i]*zz2[i]+gz[i]*(l2*ezz)
		xx0[i], xx1[i], xx2[i] = a0, a1, a2
		yy0[i], yy1[i], yy2[i] = b0, b1, b2
		zz0[i], zz1[i], zz2[i] = e0, e1, e2
		xx[i], yyr[i], zzr[i] = 0+a0+a1+a2, 0+b0+b1+b2, 0+e0+e1+e2
	}
}

// shearSplits advances the two nonzero splits (a, b in split order) of a
// shear stress over a row, split = dec*split + gain*(mu*(dth*D)) with D
// the difference over w[0] or w[1], and stores their sum to out.
func shearSplits(out, mu []float32, dth float32, w *[2][4][]float32, sp *[2][]float32, o int,
	da, ga, db, gb []float32) {
	ni := len(out)
	mur := mu[:ni]
	a0, a1, a2, a3 := w[0][0][:ni], w[0][1][:ni], w[0][2][:ni], w[0][3][:ni]
	b0, b1, b2, b3 := w[1][0][:ni], w[1][1][:ni], w[1][2][:ni], w[1][3][:ni]
	sa, sb := sp[0][o:][:ni], sp[1][o:][:ni]
	if len(da) == 1 {
		dac, gac, dbc, gbc := da[:1][0], ga[:1][0], db[:1][0], gb[:1][0]
		for i := range out {
			na := dac*sa[i] + gac*(mur[i]*(dth*d4(a0[i], a1[i], a2[i], a3[i])))
			nb := dbc*sb[i] + gbc*(mur[i]*(dth*d4(b0[i], b1[i], b2[i], b3[i])))
			sa[i], sb[i] = na, nb
			out[i] = 0 + na + nb
		}
		return
	}
	dar, gar, dbr, gbr := da[:ni], ga[:ni], db[:ni], gb[:ni]
	for i := range out {
		na := dar[i]*sa[i] + gar[i]*(mur[i]*(dth*d4(a0[i], a1[i], a2[i], a3[i])))
		nb := dbr[i]*sb[i] + gbr[i]*(mur[i]*(dth*d4(b0[i], b1[i], b2[i], b3[i])))
		sa[i], sb[i] = na, nb
		out[i] = 0 + na + nb
	}
}
