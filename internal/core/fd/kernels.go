package fd

import (
	"fmt"

	"repro/internal/medium"
)

// Variant selects a kernel implementation. All variants compute identical
// results bit for bit; they differ only in how material coefficients are
// obtained and how the loops are scheduled, mirroring the §IV.B
// optimization steps. Every variant that reads the precomputed staggered
// coefficient arrays runs the same production row-window kernels
// (fused.go); Naive and Recip remain as the ablation rungs and as the
// independent whole-array oracle the production kernels are checked
// against.
type Variant int

const (
	// Fused is the production kernel and the zero value: fully
	// precomputed coefficients, per-row subslice windows for bounds-check
	// elimination and, when the solver runs with attenuation, the
	// coarse-grained memory-variable update fused into the same i-loop.
	Fused Variant = iota
	// Naive computes staggered material averages inline with one division
	// per operand (the pre-2009 code).
	Naive
	// Recip uses stored reciprocal Lamé arrays, leaving one division per
	// harmonic mean (the "reduced division operations" step, +31%).
	Recip
	// Precomp names the paper's precomputed-coefficient rung; it runs the
	// production kernel.
	Precomp
	// Blocked runs the production kernel over jblock/kblock panels (the
	// paper's +7% cache-blocking rung).
	Blocked
	// Unrolled names the paper's x2 unrolling rung (+2%); it runs the
	// production kernel.
	Unrolled
)

func (v Variant) String() string {
	switch v {
	case Naive:
		return "naive"
	case Recip:
		return "recip"
	case Precomp:
		return "precomp"
	case Blocked:
		return "blocked"
	case Unrolled:
		return "unrolled"
	case Fused:
		return "fused"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Validate reports whether v names a known kernel variant; the solver
// rejects unknown values at configuration time instead of panicking deep
// inside the first UpdateVelocity call.
func (v Variant) Validate() error {
	if v < Fused || v > Unrolled {
		return fmt.Errorf("fd: unknown kernel variant %d", int(v))
	}
	return nil
}

// Precomputed reports whether v runs the production row-window kernels,
// i.e. is neither of the division-based Naive/Recip rungs.
func (v Variant) Precomputed() bool { return v != Naive && v != Recip }

// ParseVariant resolves a variant name as used by awp-run -variant.
func ParseVariant(name string) (Variant, error) {
	for v := Variant(0); v.Validate() == nil; v++ {
		if v.String() == name {
			return v, nil
		}
	}
	return Fused, fmt.Errorf("fd: unknown kernel variant %q (want naive|recip|precomp|blocked|unrolled|fused)", name)
}

// Blocking carries the cache-blocking factors; the paper's empirically
// best values for a loop length ~125 were kblock=16, jblock=8.
type Blocking struct {
	JBlock, KBlock int
}

// DefaultBlocking is the paper's tuned 16/8 configuration.
var DefaultBlocking = Blocking{JBlock: 8, KBlock: 16}

// UpdateVelocity advances the three velocity components over box by one
// time step of length dt using the selected variant.
func UpdateVelocity(s *State, m *medium.Medium, dt float64, box Box, v Variant, blk Blocking) {
	if box.Empty() {
		return
	}
	switch v {
	case Naive, Recip:
		velocityDivide(s, m, dt, box, v == Naive)
	case Blocked:
		forEachBlock(box, blk, func(b Box) { velocityFused(s, m, dt, b) })
	case Fused, Precomp, Unrolled:
		velocityFused(s, m, dt, box)
	default:
		panic("fd: unknown variant")
	}
}

// UpdateStress advances the six stress components over box by one time
// step of length dt using the selected variant.
func UpdateStress(s *State, m *medium.Medium, dt float64, box Box, v Variant, blk Blocking) {
	if box.Empty() {
		return
	}
	switch v {
	case Naive, Recip:
		stressDivide(s, m, dt, box, v == Naive)
	case Blocked:
		forEachBlock(box, blk, func(b Box) { stressFused(s, m, dt, b) })
	case Fused, Precomp, Unrolled:
		stressFused(s, m, dt, box)
	default:
		panic("fd: unknown variant")
	}
}

// forEachBlock tiles box into jblock x kblock panels (full x extent, as in
// the paper's Fortran blocking) and applies fn to each tile.
func forEachBlock(box Box, blk Blocking, fn func(Box)) {
	jb, kb := blk.JBlock, blk.KBlock
	if jb <= 0 {
		jb = DefaultBlocking.JBlock
	}
	if kb <= 0 {
		kb = DefaultBlocking.KBlock
	}
	for kk := box.K0; kk < box.K1; kk += kb {
		k1 := kk + kb
		if k1 > box.K1 {
			k1 = box.K1
		}
		for jj := box.J0; jj < box.J1; jj += jb {
			j1 := jj + jb
			if j1 > box.J1 {
				j1 = box.J1
			}
			fn(Box{box.I0, box.I1, jj, j1, kk, k1})
		}
	}
}

// velocityDivide implements the Naive/Recip variants: the per-point
// reciprocal densities are formed in the loop. In the naive form each
// operand costs a division; in the recip form the stored reciprocal
// density arrays are read but re-averaged in the loop (one division).
func velocityDivide(s *State, m *medium.Medium, dt float64, b Box, naive bool) {
	dth := float32(dt / m.H)
	c1, c2 := float32(C1), float32(C2)
	u, v, w := s.VX.Data(), s.VY.Data(), s.VZ.Data()
	xx, yy, zz := s.XX.Data(), s.YY.Data(), s.ZZ.Data()
	xy, xz, yz := s.XY.Data(), s.XZ.Data(), s.YZ.Data()
	rho := m.Rho.Data()
	dx, dy, dz := s.VX.Strides()

	for k := b.K0; k < b.K1; k++ {
		for j := b.J0; j < b.J1; j++ {
			n0 := s.VX.Idx(b.I0, j, k)
			for n, end := n0, n0+(b.I1-b.I0); n < end; n++ {
				var bxv, byv, bzv float32
				if naive {
					// One division per operand pair, as the original code.
					bxv = 1 / ((rho[n] + rho[n+dx]) / 2)
					byv = 1 / ((rho[n] + rho[n+dy]) / 2)
					bzv = 1 / ((rho[n] + rho[n+dz]) / 2)
				} else {
					bxv = 2 / (rho[n] + rho[n+dx])
					byv = 2 / (rho[n] + rho[n+dy])
					bzv = 2 / (rho[n] + rho[n+dz])
				}
				u[n] += dth * bxv * (c1*(xx[n+dx]-xx[n]) + c2*(xx[n+2*dx]-xx[n-dx]) +
					c1*(xy[n]-xy[n-dy]) + c2*(xy[n+dy]-xy[n-2*dy]) +
					c1*(xz[n]-xz[n-dz]) + c2*(xz[n+dz]-xz[n-2*dz]))
				v[n] += dth * byv * (c1*(xy[n]-xy[n-dx]) + c2*(xy[n+dx]-xy[n-2*dx]) +
					c1*(yy[n+dy]-yy[n]) + c2*(yy[n+2*dy]-yy[n-dy]) +
					c1*(yz[n]-yz[n-dz]) + c2*(yz[n+dz]-yz[n-2*dz]))
				w[n] += dth * bzv * (c1*(xz[n]-xz[n-dx]) + c2*(xz[n+dx]-xz[n-2*dx]) +
					c1*(yz[n]-yz[n-dy]) + c2*(yz[n+dy]-yz[n-2*dy]) +
					c1*(zz[n+dz]-zz[n]) + c2*(zz[n+2*dz]-zz[n-dz]))
			}
		}
	}
}

// stressDivide implements the Naive/Recip variants of the stress kernel:
// harmonic means of mu are formed in the loop, with four divisions per
// shear point in the naive form and one in the recip form (the stored
// reciprocal arrays make the harmonic mean a sum, cf. §IV.B).
func stressDivide(s *State, m *medium.Medium, dt float64, b Box, naive bool) {
	dth := float32(dt / m.H)
	c1, c2 := float32(C1), float32(C2)
	u, v, w := s.VX.Data(), s.VY.Data(), s.VZ.Data()
	xx, yy, zz := s.XX.Data(), s.YY.Data(), s.ZZ.Data()
	xy, xz, yz := s.XY.Data(), s.XZ.Data(), s.YZ.Data()
	lam, mu, mui := m.Lam.Data(), m.Mu.Data(), m.MuI.Data()
	dx, dy, dz := s.VX.Strides()

	for k := b.K0; k < b.K1; k++ {
		for j := b.J0; j < b.J1; j++ {
			n0 := s.VX.Idx(b.I0, j, k)
			for n, end := n0, n0+(b.I1-b.I0); n < end; n++ {
				exx := c1*(u[n]-u[n-dx]) + c2*(u[n+dx]-u[n-2*dx])
				eyy := c1*(v[n]-v[n-dy]) + c2*(v[n+dy]-v[n-2*dy])
				ezz := c1*(w[n]-w[n-dz]) + c2*(w[n+dz]-w[n-2*dz])
				l2m := lam[n] + 2*mu[n]
				xx[n] += dth * (l2m*exx + lam[n]*(eyy+ezz))
				yy[n] += dth * (l2m*eyy + lam[n]*(exx+ezz))
				zz[n] += dth * (l2m*ezz + lam[n]*(exx+eyy))
				var hxy, hxz, hyz float32
				if naive {
					hxy = hmeanNaive(mu, n, dx, dy)
					hxz = hmeanNaive(mu, n, dx, dz)
					hyz = hmeanNaive(mu, n, dy, dz)
				} else {
					hxy = hmeanRecip(mui, n, dx, dy)
					hxz = hmeanRecip(mui, n, dx, dz)
					hyz = hmeanRecip(mui, n, dy, dz)
				}
				xy[n] += dth * hxy * (c1*(u[n+dy]-u[n]) + c2*(u[n+2*dy]-u[n-dy]) +
					c1*(v[n+dx]-v[n]) + c2*(v[n+2*dx]-v[n-dx]))
				xz[n] += dth * hxz * (c1*(u[n+dz]-u[n]) + c2*(u[n+2*dz]-u[n-dz]) +
					c1*(w[n+dx]-w[n]) + c2*(w[n+2*dx]-w[n-dx]))
				yz[n] += dth * hyz * (c1*(v[n+dz]-v[n]) + c2*(v[n+2*dz]-v[n-dz]) +
					c1*(w[n+dy]-w[n]) + c2*(w[n+2*dy]-w[n-dy]))
			}
		}
	}
}

// hmeanNaive forms the 4-point harmonic mean of mu with one division per
// operand, as the original code did. Top-level (not a closure) so the call
// in the inner loop inlines.
func hmeanNaive(mu []float32, n, da, db int) float32 {
	return 4 / (1/mu[n] + 1/mu[n+da] + 1/mu[n+db] + 1/mu[n+da+db])
}

// hmeanRecip forms the harmonic mean from stored reciprocals — a sum and
// one division (§IV.B "reduced division operations").
func hmeanRecip(mui []float32, n, da, db int) float32 {
	return 4 / (mui[n] + mui[n+da] + mui[n+db] + mui[n+da+db])
}
