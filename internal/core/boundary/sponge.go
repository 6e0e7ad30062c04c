package boundary

import (
	"fmt"
	"math"

	"repro/internal/core/fd"
	"repro/internal/core/sched"
	"repro/internal/grid"
)

// Sponge implements the Cerjan et al. (1985) sponge-layer ABCs (§II.D):
// inside a layer of Width cells along each absorbing face, every wavefield
// component is multiplied per step by a taper
//
//	g(d) = exp(-(Alpha * (Width - d))^2)
//
// where d is the distance in cells from the physical domain boundary. The
// sponge is unconditionally stable but absorbs less effectively than PML —
// the fallback AWP-ODC uses when split-field PMLs go unstable on strong
// media gradients.
//
// The taper is defined in global coordinates and applied to ghost cells as
// well, so that in a decomposed run every rank damps exactly the same
// physical cells (including its copies of neighbor cells) and the result
// is independent of the decomposition and of where in the step the damping
// runs relative to the halo exchange.
type Sponge struct {
	Local  grid.Dims
	Global grid.Dims
	Off    [3]int // global index of local (0,0,0)
	Width  int
	Alpha  float64
	Faces  FaceSet // faces of the *global* domain that absorb

	taper []float32 // taper[d] for d in [0, Width)

	// fx, fy, fz are the per-axis tapers over the grid.Ghost-padded local
	// range, built once; uniform reports that every factor is 1 (the
	// subgrid is nowhere near an absorbing zone). The tapers rise
	// monotonically toward the interior, so fx is 1 on one interval of
	// columns [xLo, xHi) and differs from 1 only on the x-zone columns
	// outside it.
	fx, fy, fz []float32
	uniform    bool
	xLo, xHi   int
}

// DefaultSpongeWidth and DefaultSpongeAlpha are the classic Cerjan tuning.
const (
	DefaultSpongeWidth = 20
	DefaultSpongeAlpha = 0.015
)

// NewSponge builds a single-rank sponge (local == global).
func NewSponge(d grid.Dims, width int, alpha float64, faces FaceSet) *Sponge {
	return NewSpongeGlobal(d, d, [3]int{}, width, alpha, faces)
}

// NewSpongeGlobal builds a sponge for one rank's subgrid of a decomposed
// global domain. faces describes the absorbing faces of the global domain;
// the rank applies whatever part of the taper zone intersects its padded
// subgrid.
func NewSpongeGlobal(local, global grid.Dims, off [3]int, width int, alpha float64, faces FaceSet) *Sponge {
	if width <= 0 {
		panic(fmt.Sprintf("boundary: invalid sponge width %d", width))
	}
	sp := &Sponge{Local: local, Global: global, Off: off, Width: width, Alpha: alpha, Faces: faces}
	taper := make([]float32, width)
	for dd := range taper {
		x := alpha * float64(width-dd)
		taper[dd] = float32(math.Exp(-x * x))
	}
	sp.taper = taper
	sp.fx, sp.fy, sp.fz, sp.uniform = sp.factorsG(grid.Ghost)
	sp.xLo, sp.xHi = len(sp.fx), len(sp.fx)
	for i, f := range sp.fx {
		if f == 1 {
			if sp.xLo == len(sp.fx) {
				sp.xLo = i
			}
			sp.xHi = i + 1
		}
	}
	return sp
}

// factorAxis returns the taper for (possibly ghost) global index g along an
// axis of n global cells with the given absorbing sides, or 1 outside the
// zones. Ghost indices take the taper of the nearest physical cell.
func (sp *Sponge) factorAxis(g, n int, lo, hi bool) float32 {
	t := sp.taper
	g = clampIdx(g, n)
	if lo && uint(g) < uint(len(t)) {
		return t[g]
	}
	if d := n - 1 - g; hi && uint(d) < uint(len(t)) {
		return t[d]
	}
	return 1
}

// item returns s[i] for an index the caller knows lies in [0, len(s)),
// such as a sched.Pool work-item index, which the compiler cannot see; the
// unsigned modulo is a no-op on that range and proves the index in bounds,
// keeping this file free of bounds checks (scripts/check_bce.sh guards it).
func item[T any](s []T, i int) T { return s[uint(i)%uint(len(s))] }

// Apply damps all nine components in the sponge zones, ghost cells
// included. Call once per time step, after the stress exchange.
func (sp *Sponge) Apply(s *fd.State) { sp.ApplyPool(s, nil) }

// ApplyPool is Apply with the padded k-planes run as a work queue on the
// persistent pool (nil or serial pool: inline, without allocating). Planes
// are disjoint rows of the padded arrays, so the parallel form is
// race-free and bit-identical to the serial one.
func (sp *Sponge) ApplyPool(s *fd.State, p *sched.Pool) {
	if sp.uniform {
		return // subgrid nowhere near an absorbing zone
	}
	if p.Size() == 1 {
		for kk := range sp.fz {
			sp.applyPlanes(s, kk, false)
		}
		return
	}
	p.ForEachN(len(sp.fz), func(kk int) { sp.applyPlanes(s, kk, false) })
}

// ApplyBoxFields damps the given fields over box — which may extend into
// the ghost region, as deep as the fields' ghost width — using the same
// global-coordinate taper as Apply. It is the windowed form used by the
// time-tiled engine, where each leapfrog step inside a super-step damps
// only the skewed window it just updated. Distinct k-planes are disjoint,
// so the pooled form is race-free and bit-identical to a serial sweep.
func (sp *Sponge) ApplyBoxFields(fields []*grid.Field3, box fd.Box, p *sched.Pool) {
	if len(fields) == 0 || box.Empty() {
		return
	}
	gw := fields[0].G()
	fx, fy, fz, uniform := sp.factorsG(gw)
	if uniform {
		return
	}
	w := box.I1 - box.I0
	fxb := fx[box.I0+gw:][:w]
	fyb := fy[box.J0+gw:][:box.J1-box.J0]
	fzb := fz[box.K0+gw:][:box.K1-box.K0]
	xzones := sp.Faces.XLo || sp.Faces.XHi
	p.ForEachN(len(fzb), func(kk int) {
		zk := item(fzb, kk)
		for _, f := range fields {
			for jj, yj := range fyb {
				fyz := yj * zk
				if fyz == 1 && !xzones {
					continue
				}
				base := f.Idx(box.I0, box.J0+jj, box.K0+kk)
				scaleRow(f.Data()[base:][:w], fxb, fyz)
			}
		}
	})
}

// factorsG precomputes the per-axis taper over the local range padded by
// g ghost cells (the time-tiled engine damps recomputed extension cells
// up to 4T deep); uniform reports that every factor is 1 (nothing to
// damp).
func (sp *Sponge) factorsG(g int) (fx, fy, fz []float32, uniform bool) {
	axis := func(n, off, global int, lo, hi bool) []float32 {
		f := make([]float32, n+2*g)
		for i := range f {
			f[i] = sp.factorAxis(off+i-g, global, lo, hi)
			if f[i] != 1 {
				uniform = false
			}
		}
		return f
	}
	uniform = true
	l, gl := sp.Local, sp.Global
	fx = axis(l.NX, sp.Off[0], gl.NX, sp.Faces.XLo, sp.Faces.XHi)
	fy = axis(l.NY, sp.Off[1], gl.NY, sp.Faces.YLo, sp.Faces.YHi)
	fz = axis(l.NZ, sp.Off[2], gl.NZ, sp.Faces.ZLo, sp.Faces.ZHi)
	return fx, fy, fz, uniform
}

// ApplySurfaceFused is ApplyPool with the surface-velocity work fused in:
// for each interior surface row j, one work item damps row (j, k=0) of the
// three velocity components and then calls surface(j) — the solver's PGV
// fold — so the row is damped, folded, and still warm in cache, instead of
// being re-streamed by a separate pass after the sponge. surface must not
// be nil. In the k=0 plane item the velocity components damp only their
// ghost-j rows; every other plane is unchanged. Work items touch disjoint
// rows, so the fusion is race-free and the damped values are
// bit-identical to ApplyPool. When the subgrid is nowhere near an
// absorbing zone the damping is skipped but the surface rows still run
// (the fold must happen every step).
func (sp *Sponge) ApplySurfaceFused(s *fd.State, p *sched.Pool, surface func(j int)) {
	ny := sp.Local.NY
	if sp.uniform {
		p.ForEachN(ny, surface)
		return
	}
	nz := len(sp.fz)
	zs := item(sp.fz, grid.Ghost) // taper of the surface plane k = 0
	fyi := sp.fy[grid.Ghost:][:ny]
	p.ForEachN(nz+ny, func(idx int) {
		if idx < nz {
			sp.applyPlanes(s, idx, true)
			return
		}
		j := idx - nz
		fyz := item(fyi, j) * zs
		for _, f := range s.Velocities() {
			sp.applyRow(f, j, 0, fyz)
		}
		surface(j)
	})
}

// applyPlanes damps padded k-plane kk of all nine components. With
// surfaceRows set, the interior rows of the velocity components' k=0 plane
// are left to ApplySurfaceFused's row items.
func (sp *Sponge) applyPlanes(s *fd.State, kk int, surfaceRows bool) {
	g := grid.Ghost
	zk := item(sp.fz, kk)
	for fi, f := range s.Fields() {
		ghostOnly := surfaceRows && kk == g && fi < 3 // VX, VY, VZ lead Fields()
		for jj, yj := range sp.fy {
			if ghostOnly && jj >= g && jj < g+sp.Local.NY {
				continue
			}
			sp.applyRow(f, jj-g, kk-g, yj*zk)
		}
	}
}

// applyRow damps one padded x-row of one field; fyz is the combined y/z
// taper for the row. Outside the y/z zones (fyz == 1) the taper is fx
// itself, so only the x-zone columns are scanned.
func (sp *Sponge) applyRow(f *grid.Field3, j, k int, fyz float32) {
	fx := sp.fx
	base := f.Idx(-grid.Ghost, j, k)
	row := f.Data()[base:][:len(fx)]
	if fyz == 1 {
		scaleRow(row[:sp.xLo], fx[:sp.xLo], 1)
		scaleRow(row[sp.xHi:], fx[sp.xHi:], 1)
		return
	}
	scaleRow(row, fx, fyz)
}

// scaleRow multiplies row by the taper fx*fyz wherever that is not 1.
func scaleRow(row, fx []float32, fyz float32) {
	row = row[:len(fx)]
	for i, f := range fx {
		if t := f * fyz; t != 1 {
			row[i] *= t
		}
	}
}

// clampIdx clamps a (possibly ghost) global index into [0, n).
func clampIdx(g, n int) int {
	if g < 0 {
		return 0
	}
	if g >= n {
		return n - 1
	}
	return g
}
