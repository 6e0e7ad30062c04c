// Package attenuation implements the coarse-grained memory-variable
// scheme of Day (1998) and Day & Bradley (2001) used by AWP-ODC to model
// frequency-independent anelastic losses (constant Q) during wave
// propagation (§II.A).
//
// The method approximates the constant-Q relaxation spectrum by NRelax
// exponential mechanisms with relaxation times log-spaced over the modeled
// band. Instead of storing all mechanisms at every grid point (8x memory),
// the mechanisms are distributed over the points of 2x2x2 coarse-graining
// cells: each point carries exactly one memory variable per stress
// component, and for wavelengths long against the cell the ensemble
// behaves like the full set — "without sacrificing computational or
// memory efficiency".
//
// Formulation: the anelastic stress is sigma = M_R*eps + sum_m zeta_m with
//
//	tau_m * dzeta_m/dt + zeta_m = deltaM * tau_m * deps/dt
//
// where M_R is the (relaxed) modulus carried by the elastic kernel. For a
// harmonic strain this yields the complex modulus
//
//	M(w) = M_R + deltaM * sum_m (i*w*tau_m)/(1 + i*w*tau_m)
//
// whose loss 1/Q(w) ~ (deltaM/M_u) * sum_m s(w*tau_m), s(x) = x/(1+x^2).
// With log-spaced tau the sum is nearly flat over the band, so a single
// normalization at the band center gives approximately constant Q. The
// per-point modulus deficit is deltaM = (M/Q) * 8/sum_m s(w0*tau_m), the
// factor 8 compensating for each point carrying only one of the eight
// mechanisms.
package attenuation

import (
	"fmt"
	"math"

	"repro/internal/core/fd"
	"repro/internal/core/sched"
	"repro/internal/grid"
	"repro/internal/medium"
)

// NRelax is the number of relaxation mechanisms; the paper uses eight,
// distributed over the 8 points of a 2x2x2 coarse-graining cell.
const NRelax = 8

// Band is the frequency band over which Q is held approximately constant.
type Band struct {
	FMin, FMax float64 // Hz
}

// DefaultBand covers the 0.02–2 Hz band of the M8 simulation.
var DefaultBand = Band{FMin: 0.02, FMax: 2.0}

// RelaxationTimes returns NRelax relaxation times log-spaced across the
// band, longest first.
func (b Band) RelaxationTimes() [NRelax]float64 {
	var taus [NRelax]float64
	if b.FMin <= 0 || b.FMax <= b.FMin {
		panic(fmt.Sprintf("attenuation: invalid band %+v", b))
	}
	lmin := math.Log(1 / (2 * math.Pi * b.FMax))
	lmax := math.Log(1 / (2 * math.Pi * b.FMin))
	for m := 0; m < NRelax; m++ {
		f := float64(m) / float64(NRelax-1)
		taus[m] = math.Exp(lmax + f*(lmin-lmax))
	}
	return taus
}

// lossShape is s(x) = x/(1+x^2), the loss spectrum of one mechanism.
func lossShape(x float64) float64 { return x / (1 + x*x) }

// CenterOmega returns the geometric-center angular frequency of the band.
func (b Band) CenterOmega() float64 {
	return 2 * math.Pi * math.Sqrt(b.FMin*b.FMax)
}

// ensembleLoss returns sum_m s(w*tau_m) for the band's spectrum.
func ensembleLoss(taus [NRelax]float64, omega float64) float64 {
	var s float64
	for _, tau := range taus {
		s += lossShape(omega * tau)
	}
	return s
}

// Model holds the per-rank attenuation state: one memory variable per
// stress component per grid point, with the mechanism index determined by
// the point's position within its 2x2x2 coarse-graining cell.
type Model struct {
	Dims grid.Dims
	Band Band
	Taus [NRelax]float64

	// Per-mechanism recursion coefficients for the current dt, rounded
	// once to the kernels' float32: zeta' = am*zeta + cm*deltaM*deps.
	am, cm [NRelax]float32
	dt     float64

	// Origin is the global index of the local (0,0,0) cell; the
	// coarse-grained mechanism assignment uses global parity so that a
	// decomposed run matches a single-rank run exactly.
	Origin [3]int

	// Memory variables, one per stress component.
	ZXX, ZYY, ZZZ *grid.Field3
	ZXY, ZXZ, ZYZ *grid.Field3

	// Per-point coarse-grain-normalized modulus deficits.
	DLam, DMu *grid.Field3
}

// New builds the attenuation model for medium m over band, discretized at
// time step dt (Apply panics if called with a different dt).
func New(m *medium.Medium, band Band, dt float64) *Model {
	// Memory variables inherit the medium's ghost width: time-tiled runs
	// allocate deep-ghost media and need matching deep memory variables for
	// the recomputed extension cells.
	gw := m.Rho.G()
	nf := func() *grid.Field3 { return grid.NewField3G(m.Dims, gw) }
	a := &Model{
		Dims: m.Dims,
		Band: band,
		Taus: band.RelaxationTimes(),
		dt:   dt,
		ZXX:  nf(), ZYY: nf(), ZZZ: nf(),
		ZXY: nf(), ZXZ: nf(), ZYZ: nf(),
		DLam: nf(), DMu: nf(),
	}
	for mm := 0; mm < NRelax; mm++ {
		tau := a.Taus[mm]
		a.am[mm] = float32((2*tau - dt) / (2*tau + dt))
		a.cm[mm] = float32(2 * tau / (2*tau + dt))
	}
	// Coarse-grain normalization: each point carries one mechanism, so its
	// deficit is 8x the full-ensemble per-mechanism deficit, normalized to
	// the band-center loss.
	norm := float64(NRelax) / ensembleLoss(a.Taus, band.CenterOmega())
	// Every point of the padded arrays, ghosts included: the model's
	// fields share the medium's ghost width and hence its layout.
	dlam, dmu := a.DLam.Data(), a.DMu.Data()
	dmu = dmu[:len(dlam)]
	qpd, qsd := m.QP.Data()[:len(dlam)], m.QS.Data()[:len(dlam)]
	lamd, mud := m.Lam.Data()[:len(dlam)], m.Mu.Data()[:len(dlam)]
	for n := range dlam {
		qp, qs := float64(qpd[n]), float64(qsd[n])
		lam2mu := float64(lamd[n]) + 2*float64(mud[n])
		mu := float64(mud[n])
		var dl, dm float64
		if qs > 0 {
			dm = norm * mu / qs
		}
		if qp > 0 {
			// Qp controls the P modulus (lam+2mu); subtract the mu
			// part so lambda's deficit is consistent.
			dl = norm*lam2mu/qp - 2*dm
			if dl < 0 {
				dl = 0
			}
		}
		dlam[n] = float32(dl)
		dmu[n] = float32(dm)
	}
	return a
}

// rowMech returns the recursion coefficients the points of row (j, k)
// select, indexed by global x parity: the coarse-grained mechanism of a
// point cycles through its 2x2x2 cell parity, and only the x parity varies
// along a row, so the per-point table collapses to two entries per row.
func (a *Model) rowMech(j, k int) (am, cm [2]float32) {
	base := ((k+a.Origin[2])&1)<<2 | ((j+a.Origin[1])&1)<<1
	return [2]float32{a.am[base], a.am[base|1]}, [2]float32{a.cm[base], a.cm[base|1]}
}

// Apply advances the memory variables over box using the velocity field of
// s (whose spatial differences give the strain increments) and applies the
// anelastic stress corrections in place. Call it immediately after the
// elastic stress update each time step, with the same dt and box. It is the
// two-pass form FusedStress folds into the elastic sweep; it runs on its
// own where the stress must be corrected between the two updates (DFR
// fault mode) and after the division-based Naive/Recip kernels. The loop
// uses the per-row subslice windows of fd/fused.go, so the inner loop
// carries no bounds checks.
func (a *Model) Apply(s *fd.State, m *medium.Medium, dt float64, box fd.Box) {
	if dt != a.dt {
		panic(fmt.Sprintf("attenuation: model built for dt=%g, called with %g", a.dt, dt))
	}
	if box.Empty() {
		return
	}
	c1, c2 := float32(fd.C1), float32(fd.C2)
	dh := float32(dt / m.H) // strain increment scale
	u, v, w := s.VX.Data(), s.VY.Data(), s.VZ.Data()
	xx, yy, zz := s.XX.Data(), s.YY.Data(), s.ZZ.Data()
	xy, xz, yz := s.XY.Data(), s.XZ.Data(), s.YZ.Data()
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
			zxxr := zxx[n0:][:ni]
			zyyr := zyy[n0:][:ni]
			zzzr := zzz[n0:][:ni]
			zxyr := zxy[n0:][:ni]
			zxzr := zxz[n0:][:ni]
			zyzr := zyz[n0:][:ni]
			dlamr := dlam[n0:][:ni]
			dmur := dmu[n0:][:ni]
			for i := range xxr {
				p := (i + pari) & 1
				am, cm := amP[p], cmP[p]

				// Strain increments over this step (dt * strain rate);
				// shear components are engineering strain, matching the
				// elastic constitutive update.
				exx := dh * (c1*(uc[i]-um1x[i]) + c2*(up1x[i]-um2x[i]))
				eyy := dh * (c1*(vc[i]-vm1y[i]) + c2*(vp1y[i]-vm2y[i]))
				ezz := dh * (c1*(wc[i]-wm1z[i]) + c2*(wp1z[i]-wm2z[i]))
				exy := dh * (c1*(up1y[i]-uc[i]) + c2*(up2y[i]-um1y[i]) +
					c1*(vp1x[i]-vc[i]) + c2*(vp2x[i]-vm1x[i]))
				exz := dh * (c1*(up1z[i]-uc[i]) + c2*(up2z[i]-um1z[i]) +
					c1*(wp1x[i]-wc[i]) + c2*(wp2x[i]-wm1x[i]))
				eyz := dh * (c1*(vp1z[i]-vc[i]) + c2*(vp2z[i]-vm1z[i]) +
					c1*(wp1y[i]-wc[i]) + c2*(wp2y[i]-wm1y[i]))

				// zeta' = am*zeta + cm*deltaM*deps, constitutive-shaped;
				// the SLS stress is sigma = M_R*eps + zeta (the elastic
				// kernel supplies the relaxed part), so the correction adds
				// the memory-variable increment.
				dl2m := dlamr[i] + 2*dmur[i]
				trace := dlamr[i] * (exx + eyy + ezz)
				zn := am*zxxr[i] + cm*(dl2m*exx+trace-dlamr[i]*exx)
				xxr[i] += zn - zxxr[i]
				zxxr[i] = zn
				zn = am*zyyr[i] + cm*(dl2m*eyy+trace-dlamr[i]*eyy)
				yyr[i] += zn - zyyr[i]
				zyyr[i] = zn
				zn = am*zzzr[i] + cm*(dl2m*ezz+trace-dlamr[i]*ezz)
				zzr[i] += zn - zzzr[i]
				zzzr[i] = zn
				zn = am*zxyr[i] + cm*(dmur[i]*exy)
				xyr[i] += zn - zxyr[i]
				zxyr[i] = zn
				zn = am*zxzr[i] + cm*(dmur[i]*exz)
				xzr[i] += zn - zxzr[i]
				zxzr[i] = zn
				zn = am*zyzr[i] + cm*(dmur[i]*eyz)
				yzr[i] += zn - zyzr[i]
				zyzr[i] = zn
			}
		}
	}
}

// ApplyTiled runs Apply over the j/k tiles of box on the persistent pool;
// memory variables and stress corrections are per-point, so any disjoint
// tiling is race-free and bit-identical to Apply.
func (a *Model) ApplyTiled(s *fd.State, m *medium.Medium, dt float64, box fd.Box, blk fd.Blocking, p *sched.Pool) {
	fd.ForEachTile(box, blk, p, func(b fd.Box) {
		a.Apply(s, m, dt, b)
	})
}

// FlopsPerCell is the approximate flop count of the attenuation pass per
// cell per step, for the performance model.
const FlopsPerCell = 90

// QPredicted returns the effective quality factor the relaxation ensemble
// produces at angular frequency omega for a target Q — the verification
// quantity of Day (1998). A perfect constant-Q model would return targetQ
// at every frequency in the band.
func (a *Model) QPredicted(omega, targetQ float64) float64 {
	if targetQ <= 0 {
		return math.Inf(1)
	}
	loss := ensembleLoss(a.Taus, omega) / ensembleLoss(a.Taus, a.Band.CenterOmega())
	return targetQ / loss
}
