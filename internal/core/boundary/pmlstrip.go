package boundary

import (
	"repro/internal/core/fd"
	"repro/internal/cpufeat"
	"repro/internal/medium"
)

// Strip kernels of the PML zones. A zone is updated one x-row (fixed
// zone-local lj, lk) at a time. Each call first builds the zone's operand
// tables (velTab, normTab, shearTab): one window per field and stencil
// offset, sliced once from the zone's first cell over the span of all
// its rows, plus the whole split and coefficient arrays. A row is then
// three offsets into them (rowOffsets): fo into the field windows, so
// into the splits and co into the coefficient rows. The Go kernels
// re-slice each operand at the row in the fd/fused.go idiom,
//
//	ap := t.w[s][q][fo:][:ni]    // explicit length-ni window
//
// so the prove pass eliminates all per-point bounds checks in the
// `for i := range out` loops (scripts/check_bce.sh guards this file). The
// arithmetic is operand-for-operand that of the per-cell reference (the
// oracle in pml_test.go), so results are bit-identical to it.
//
// On CPUs with AVX2 every row runs instead through an 8-lane assembly row
// body (pmlstrip_amd64.s) that reads the same tables at the same offsets.
// Production rows are rarely a multiple of 8 wide (an x zone of width 10,
// y/z rows of 22 in m8-mpml), so the last ni mod 8 cells run the same body
// once more with masked loads and stores (VMASKMOVPS): masked-off lanes
// neither read nor write memory, so no read leaves the row and no
// neighbouring cell is written, and no Go tail loop runs. Each lane
// performs the Go loop's operations in the same order under the rules of
// DESIGN.md §9, so the two paths are bit-identical.
//
// Recombination and signed zeros: a component is the sum of its splits,
// accumulated from +0 in split order 0,1,2 — hence the leading `0 +`. An
// accumulator that starts at +0 is never -0 (x + y is -0 only when both
// are -0), and adding +0 to anything but -0 returns it unchanged. The
// three splits without a source term (sxy_z, sxz_y, syz_x) start at +0
// and stay exactly +0 (dec*(+0) + gain*(+0) with gain > 0 is +0), so
// leaving them out of the sums changes no bit, and they are not stored.

// useAVX2 selects the assembly row bodies. Tests clear it to run the Go
// loops.
var useAVX2 = cpufeat.AVX2

// Difference directions: the lowest stencil offset of a forward
// (a[n+1]-a[n], a[n+2]-a[n-1]) and a backward (a[n]-a[n-1],
// a[n+1]-a[n-2]) 4th-order staggered difference.
const (
	fwd = -1
	bwd = -2
)

// c1 and c2 are the 4th-order staggered difference coefficients.
const c1, c2 = float32(fd.C1), float32(fd.C2)

// d4 is the 4th-order staggered difference c1*(w2-w1) + c2*(w3-w0) of
// four stencil values.
func d4(w0, w1, w2, w3 float32) float32 {
	return c1*(w2-w1) + c2*(w3-w0)
}

// stencil returns the four windows a[n0+(lo+q)*st:][:ni], q = 0..3, of a
// difference along stride st starting at offset lo (fwd or bwd); either
// way the difference at i is d4(w[0][i], w[1][i], w[2][i], w[3][i]).
func stencil(a []float32, n0, st, lo, ni int) [4][]float32 {
	n := n0 + lo*st
	return [4][]float32{a[n:][:ni], a[n+st:][:ni], a[n+2*st:][:ni], a[n+3*st:][:ni]}
}

// velTab holds the operands of one velocity component over a zone: out
// and the buoyancy b, the stencil windows w[s] of its three differences,
// and its splits with their coefficient rows. The assembly row bodies
// read the slice headers at their go_asm.h offsets.
type velTab struct {
	out, b        []float32
	w             [3][4][]float32
	sp, dec, gain [3][]float32
}

// normTab holds the operands of the three normal stresses over a zone:
// out[c] is stress c (xx, yy, zz), w[s] the stencil windows of the strain
// along s, and sp[c][s] the s-split of stress c.
type normTab struct {
	out       [3][]float32
	lam, l2m  []float32
	w         [3][4][]float32
	sp        [3][3][]float32
	dec, gain [3][]float32
}

// shearTab holds the operands of one shear stress over a zone: its two
// differences and its two stored splits, in split order.
type shearTab struct {
	out, mu       []float32
	w             [2][4][]float32
	sp, dec, gain [2][]float32
}

// extent returns the index nb of the zone's first cell in s's fields, the
// span from it to the end of the zone's last row, and the y and z strides.
func (pm *PML) extent(s *fd.State) (nb, span, dy, dz int) {
	z := pm.Zone
	nb = s.VX.Idx(z.I0, z.J0, z.K0)
	_, dy, dz = s.VX.Strides()
	return nb, s.VX.Idx(z.I0, z.J1-1, z.K1-1) - nb + pm.nx, dy, dz
}

// velocityTables points the zone's velocity tables at s and m.
func (pm *PML) velocityTables(s *fd.State, m *medium.Medium) {
	nb, span, dy, dz := pm.extent(s)
	xx, yy, zz := s.XX.Data(), s.YY.Data(), s.ZZ.Data()
	xy, xz, yz := s.XY.Data(), s.XZ.Data(), s.YZ.Data()
	win := func(a []float32) []float32 { return a[nb:][:span] }
	pm.vt[0] = velTab{out: win(s.VX.Data()), b: win(m.BX.Data()), w: [3][4][]float32{
		stencil(xx, nb, 1, fwd, span), stencil(xy, nb, dy, bwd, span), stencil(xz, nb, dz, bwd, span),
	}}
	pm.vt[1] = velTab{out: win(s.VY.Data()), b: win(m.BY.Data()), w: [3][4][]float32{
		stencil(xy, nb, 1, bwd, span), stencil(yy, nb, dy, fwd, span), stencil(yz, nb, dz, bwd, span),
	}}
	pm.vt[2] = velTab{out: win(s.VZ.Data()), b: win(m.BZ.Data()), w: [3][4][]float32{
		stencil(xz, nb, 1, bwd, span), stencil(yz, nb, dy, bwd, span), stencil(zz, nb, dz, fwd, span),
	}}
	for c := range pm.vt {
		pm.vt[c].sp, pm.vt[c].dec, pm.vt[c].gain = pm.vel[c], pm.dec, pm.gain
	}
}

// stressTables points the zone's stress tables at s and m.
func (pm *PML) stressTables(s *fd.State, m *medium.Medium) {
	nb, span, dy, dz := pm.extent(s)
	u, v, w := s.VX.Data(), s.VY.Data(), s.VZ.Data()
	win := func(a []float32) []float32 { return a[nb:][:span] }
	pm.nt = normTab{
		out: [3][]float32{win(s.XX.Data()), win(s.YY.Data()), win(s.ZZ.Data())},
		lam: win(m.Lam.Data()), l2m: win(m.Lam2Mu.Data()),
		w:  [3][4][]float32{stencil(u, nb, 1, bwd, span), stencil(v, nb, dy, bwd, span), stencil(w, nb, dz, bwd, span)},
		sp: pm.nrm, dec: pm.dec, gain: pm.gain,
	}
	// xy: splits x, y; xz: x, z; yz: y, z.
	dec, gain := pm.dec, pm.gain
	pm.stt[0] = shearTab{out: win(s.XY.Data()), mu: win(m.MuXY.Data()),
		w:  [2][4][]float32{stencil(v, nb, 1, fwd, span), stencil(u, nb, dy, fwd, span)},
		sp: pm.shr[0], dec: [2][]float32{dec[0], dec[1]}, gain: [2][]float32{gain[0], gain[1]}}
	pm.stt[1] = shearTab{out: win(s.XZ.Data()), mu: win(m.MuXZ.Data()),
		w:  [2][4][]float32{stencil(w, nb, 1, fwd, span), stencil(u, nb, dz, fwd, span)},
		sp: pm.shr[1], dec: [2][]float32{dec[0], dec[2]}, gain: [2][]float32{gain[0], gain[2]}}
	pm.stt[2] = shearTab{out: win(s.YZ.Data()), mu: win(m.MuYZ.Data()),
		w:  [2][4][]float32{stencil(w, nb, dy, fwd, span), stencil(v, nb, dz, fwd, span)},
		sp: pm.shr[2], dec: [2][]float32{dec[1], dec[2]}, gain: [2][]float32{gain[1], gain[2]}}
}

// rowOffsets returns the x-row (lj, lk)'s offsets into the zone's
// tables: fo into the field windows (y and z strides dy, dz), so into the
// splits and co into the coefficient rows.
func (pm *PML) rowOffsets(lj, lk, dy, dz int) (fo, so, co int) {
	return lj*dy + lk*dz, (lk*pm.ny + lj) * pm.nx, pm.coefOffset(lj, lk)
}

// velocityRow advances the velocity splits of the x-row (lj, lk) and
// writes the recombined velocities.
func (pm *PML) velocityRow(lj, lk, dy, dz int, dth float32, avx2 bool) {
	fo, so, co := pm.rowOffsets(lj, lk, dy, dz)
	for c := range pm.vt {
		if avx2 {
			velocitySplitsAVX2(&pm.vt[c], fo, so, co, pm.nx, dth, c1, c2)
		} else {
			velocitySplits(&pm.vt[c], fo, so, co, pm.nx, dth)
		}
	}
}

// stressRow advances the stress splits of the x-row (lj, lk) and writes
// the recombined stresses.
func (pm *PML) stressRow(lj, lk, dy, dz int, dth float32, avx2 bool) {
	fo, so, co := pm.rowOffsets(lj, lk, dy, dz)
	if avx2 {
		normalSplitsAVX2(&pm.nt, fo, so, co, pm.nx, dth, c1, c2)
	} else {
		normalSplits(&pm.nt, fo, so, co, pm.nx, dth)
	}
	for c := range pm.stt {
		if avx2 {
			shearSplitsAVX2(&pm.stt[c], fo, so, co, pm.nx, dth, c1, c2)
		} else {
			shearSplits(&pm.stt[c], fo, so, co, pm.nx, dth)
		}
	}
}

// velocitySplits advances the three splits of one velocity component
// over a row, split_s = dec_s*split_s + gain_s*(dth*b)*D_s with D_s the
// difference over windows w[s], and stores their sum to out.
func velocitySplits(t *velTab, fo, so, co, ni int, dth float32) {
	out, br := t.out[fo:][:ni], t.b[fo:][:ni]
	x0, x1, x2, x3 := t.w[0][0][fo:][:ni], t.w[0][1][fo:][:ni], t.w[0][2][fo:][:ni], t.w[0][3][fo:][:ni]
	y0, y1, y2, y3 := t.w[1][0][fo:][:ni], t.w[1][1][fo:][:ni], t.w[1][2][fo:][:ni], t.w[1][3][fo:][:ni]
	z0, z1, z2, z3 := t.w[2][0][fo:][:ni], t.w[2][1][fo:][:ni], t.w[2][2][fo:][:ni], t.w[2][3][fo:][:ni]
	sx, sy, sz := t.sp[0][so:][:ni], t.sp[1][so:][:ni], t.sp[2][so:][:ni]
	dx, dy, dz := t.dec[0][co:][:ni], t.dec[1][co:][:ni], t.dec[2][co:][:ni]
	gx, gy, gz := t.gain[0][co:][:ni], t.gain[1][co:][:ni], t.gain[2][co:][:ni]
	for i := range out {
		bi := dth * br[i]
		nx := dx[i]*sx[i] + gx[i]*(bi*d4(x0[i], x1[i], x2[i], x3[i]))
		ny := dy[i]*sy[i] + gy[i]*(bi*d4(y0[i], y1[i], y2[i], y3[i]))
		nz := dz[i]*sz[i] + gz[i]*(bi*d4(z0[i], z1[i], z2[i], z3[i]))
		sx[i], sy[i], sz[i] = nx, ny, nz
		out[i] = 0 + nx + ny + nz
	}
}

// normalSplits advances the nine splits of the normal stresses over a
// row. The strains exx, eyy, ezz (differences over w[0], w[1], w[2]
// scaled by dth) feed split x, y, z of each component with modulus l2m on
// the diagonal and lam off it.
func normalSplits(t *normTab, fo, so, co, ni int, dth float32) {
	xx, yy, zz := t.out[0][fo:][:ni], t.out[1][fo:][:ni], t.out[2][fo:][:ni]
	lam, l2m := t.lam[fo:][:ni], t.l2m[fo:][:ni]
	ux0, ux1, ux2, ux3 := t.w[0][0][fo:][:ni], t.w[0][1][fo:][:ni], t.w[0][2][fo:][:ni], t.w[0][3][fo:][:ni]
	vy0, vy1, vy2, vy3 := t.w[1][0][fo:][:ni], t.w[1][1][fo:][:ni], t.w[1][2][fo:][:ni], t.w[1][3][fo:][:ni]
	wz0, wz1, wz2, wz3 := t.w[2][0][fo:][:ni], t.w[2][1][fo:][:ni], t.w[2][2][fo:][:ni], t.w[2][3][fo:][:ni]
	xx0, xx1, xx2 := t.sp[0][0][so:][:ni], t.sp[0][1][so:][:ni], t.sp[0][2][so:][:ni]
	yy0, yy1, yy2 := t.sp[1][0][so:][:ni], t.sp[1][1][so:][:ni], t.sp[1][2][so:][:ni]
	zz0, zz1, zz2 := t.sp[2][0][so:][:ni], t.sp[2][1][so:][:ni], t.sp[2][2][so:][:ni]
	dx, dy, dz := t.dec[0][co:][:ni], t.dec[1][co:][:ni], t.dec[2][co:][:ni]
	gx, gy, gz := t.gain[0][co:][:ni], t.gain[1][co:][:ni], t.gain[2][co:][:ni]
	for i := range xx {
		exx := dth * d4(ux0[i], ux1[i], ux2[i], ux3[i])
		eyy := dth * d4(vy0[i], vy1[i], vy2[i], vy3[i])
		ezz := dth * d4(wz0[i], wz1[i], wz2[i], wz3[i])
		la, l2 := lam[i], l2m[i]
		lx, ly, lz := la*exx, la*eyy, la*ezz
		a0, a1, a2 := dx[i]*xx0[i]+gx[i]*(l2*exx), dy[i]*xx1[i]+gy[i]*ly, dz[i]*xx2[i]+gz[i]*lz
		b0, b1, b2 := dx[i]*yy0[i]+gx[i]*lx, dy[i]*yy1[i]+gy[i]*(l2*eyy), dz[i]*yy2[i]+gz[i]*lz
		e0, e1, e2 := dx[i]*zz0[i]+gx[i]*lx, dy[i]*zz1[i]+gy[i]*ly, dz[i]*zz2[i]+gz[i]*(l2*ezz)
		xx0[i], xx1[i], xx2[i] = a0, a1, a2
		yy0[i], yy1[i], yy2[i] = b0, b1, b2
		zz0[i], zz1[i], zz2[i] = e0, e1, e2
		xx[i], yy[i], zz[i] = 0+a0+a1+a2, 0+b0+b1+b2, 0+e0+e1+e2
	}
}

// shearSplits advances the two stored splits (a, b in split order) of a
// shear stress over a row, split = dec*split + gain*(mu*(dth*D)) with D
// the difference over w[0] or w[1], and stores their sum to out.
func shearSplits(t *shearTab, fo, so, co, ni int, dth float32) {
	out, mu := t.out[fo:][:ni], t.mu[fo:][:ni]
	a0, a1, a2, a3 := t.w[0][0][fo:][:ni], t.w[0][1][fo:][:ni], t.w[0][2][fo:][:ni], t.w[0][3][fo:][:ni]
	b0, b1, b2, b3 := t.w[1][0][fo:][:ni], t.w[1][1][fo:][:ni], t.w[1][2][fo:][:ni], t.w[1][3][fo:][:ni]
	sa, sb := t.sp[0][so:][:ni], t.sp[1][so:][:ni]
	da, db := t.dec[0][co:][:ni], t.dec[1][co:][:ni]
	ga, gb := t.gain[0][co:][:ni], t.gain[1][co:][:ni]
	for i := range out {
		na := da[i]*sa[i] + ga[i]*(mu[i]*(dth*d4(a0[i], a1[i], a2[i], a3[i])))
		nb := db[i]*sb[i] + gb[i]*(mu[i]*(dth*d4(b0[i], b1[i], b2[i], b3[i])))
		sa[i], sb[i] = na, nb
		out[i] = 0 + na + nb
	}
}
