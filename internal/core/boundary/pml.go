package boundary

import (
	"fmt"
	"math"

	"repro/internal/core/fd"
	"repro/internal/core/sched"
	"repro/internal/grid"
	"repro/internal/medium"
)

// PML implements a split-field multi-axial perfectly matched layer zone
// (§II.D). Inside the zone each wavefield component is carried as three
// directional splits phi = phi_x + phi_y + phi_z, where split s collects
// the terms of the governing equation containing s-derivatives. Each split
// is damped:
//
//	d phi_s/dt + d_s * phi_s = L_s(phi)
//
// with d_s = d(l) for the split normal to the zone face, and d_s = p*d(l)
// for the two parallel splits — the multi-axial stabilization of
// Meza-Fajardo & Papageorgiou (2008); p = 0 recovers the classic PML,
// which is unstable under strong medium gradients.
//
// The damping profile is the standard polynomial ramp
//
//	d(l) = d0 * ((l+1/2)/W)^2,  d0 = 3*Vp*ln(1/R) / (2*W*h)
//
// rising from ~0 at the interior interface to d0 at the outer boundary.
//
// Storage and kernels (see pmlstrip.go): the splits live in dense,
// ghost-free zone-sized arrays, and the zone is updated one contiguous
// x-row at a time. The three splits without a source term — sxy_z, sxz_y
// and syz_x — are never stored: they start at +0 and stay exactly +0, so
// they change no bit of the recombined sums (argument in pmlstrip.go).
type PML struct {
	Zone  fd.Box
	Axis  grid.Axis
	Side  grid.Side
	Width int
	P     float64 // M-PML parallel damping ratio

	nx, ny, nz int // zone extent

	// splits backs all 24 split arrays, each nx*ny*nz long (local index
	// (lk*ny+lj)*nx+li); the named views below slice it.
	splits []float32
	// vel[c][s] is the s-direction split of velocity component c.
	vel [3][3][]float32
	// nrm[c][s] is the s-direction split of normal stress c (xx, yy, zz).
	nrm [3][3][]float32
	// shr[c] holds the two nonzero splits of shear stress c (xy: x,y;
	// xz: x,z; yz: y,z), in split order.
	shr [3][2][]float32

	// damp[l] is d(l) for depth-from-boundary l in [0, Width).
	damp []float64

	// The split-update coefficients (decay, gain) for step dt, built by
	// prepare: dec[s], gain[s] serve split direction s, so the split
	// normal to the face has its own pair and the two parallel splits
	// share one. Each is a rows x nx float32 array: an x zone has one row,
	// the profile along i; a y or z zone has one row per axis coordinate,
	// that coordinate's value broadcast along x. The x-row (lj, lk) reads
	// the row at coefOffset(lj, lk), so every kernel indexes its
	// coefficients per i whatever the zone's axis.
	dt        float64 // NaN until the first prepare
	dec, gain [3][]float32

	// Operand tables of the row kernels over the whole zone, rebuilt by
	// each PMLSet call for its state and medium (pmlstrip.go).
	vt  [3]velTab
	nt  normTab
	stt [3]shearTab
}

// DefaultPMLWidth is the M8 production width (10 cells).
const DefaultPMLWidth = 10

// DefaultMPMLRatio is the multi-axial damping ratio.
const DefaultMPMLRatio = 0.1

// DefaultPMLReflection is the design reflection coefficient R.
const DefaultPMLReflection = 1e-5

// pmlSplits is the number of stored split arrays per zone: 9 velocity,
// 9 normal-stress and 6 shear-stress splits.
const pmlSplits = 24

// NewPML builds one zone. vpMax and h size the damping profile.
func NewPML(zone fd.Box, axis grid.Axis, side grid.Side, width int, p, rcoef, vpMax, h float64) *PML {
	if zone.Empty() || width <= 0 {
		panic(fmt.Sprintf("boundary: invalid PML zone %v width %d", zone, width))
	}
	pm := &PML{Zone: zone, Axis: axis, Side: side, Width: width, P: p,
		nx: zone.I1 - zone.I0, ny: zone.J1 - zone.J0, nz: zone.K1 - zone.K0, dt: math.NaN()}
	cells := zone.Cells()
	buf := make([]float32, pmlSplits*cells)
	pm.splits = buf
	next := func() []float32 {
		a := buf[:cells:cells]
		buf = buf[cells:]
		return a
	}
	for c := 0; c < 3; c++ {
		for s := 0; s < 3; s++ {
			pm.vel[c][s] = next()
		}
	}
	for c := 0; c < 3; c++ {
		for s := 0; s < 3; s++ {
			pm.nrm[c][s] = next()
		}
	}
	for c := 0; c < 3; c++ {
		pm.shr[c][0], pm.shr[c][1] = next(), next()
	}

	d0 := 3 * vpMax * math.Log(1/rcoef) / (2 * float64(width) * h)
	pm.damp = make([]float64, width)
	for l := 0; l < width; l++ {
		x := (float64(width-l) - 0.5) / float64(width)
		pm.damp[l] = d0 * x * x
	}
	rows := 1
	if axis != grid.X {
		rows = pm.axisLen()
	}
	decN, gainN := make([]float32, rows*pm.nx), make([]float32, rows*pm.nx)
	decP, gainP := make([]float32, rows*pm.nx), make([]float32, rows*pm.nx)
	for s := range pm.dec {
		pm.dec[s], pm.gain[s] = decP, gainP
		if grid.Axis(s) == axis {
			pm.dec[s], pm.gain[s] = decN, gainN
		}
	}
	return pm
}

// axisLen is the zone's extent along its axis.
func (pm *PML) axisLen() int {
	switch pm.Axis {
	case grid.X:
		return pm.nx
	case grid.Y:
		return pm.ny
	}
	return pm.nz
}

// prepare builds the coefficient rows for step dt (a no-op when they are
// already built for dt). Each coefficient is the float64 expression
//
//	dec = (1 - d_s*dt/2) / (1 + d_s*dt/2),  gain = 1 / (1 + d_s*dt/2)
//
// rounded once to float32, so phi_s' = dec*phi_s + gain*dt*T_s. The
// damping index of axis coordinate a is its distance from the
// interior-facing edge, clamped to the profile.
func (pm *PML) prepare(dt float64) {
	if dt == pm.dt {
		return
	}
	pm.dt = dt
	coef := func(ds float64) (dec, gain float32) {
		den := 1 + ds*dt/2
		return float32((1 - ds*dt/2) / den), float32(1 / den)
	}
	par := (pm.Axis + 1) % 3
	dN, gN, dP, gP := pm.dec[pm.Axis], pm.gain[pm.Axis], pm.dec[par], pm.gain[par]
	n := pm.axisLen()
	for a := 0; a < n; a++ {
		l := a
		if pm.Side == grid.High {
			l = n - 1 - a
		}
		d := pm.damp[min(l, len(pm.damp)-1)]
		dn, gn := coef(d)
		dp, gp := coef(pm.P * d)
		// Entry a of an x zone's one row; all of row a in a y or z zone.
		lo, hi := a, a+1
		if pm.Axis != grid.X {
			lo, hi = a*pm.nx, (a+1)*pm.nx
		}
		for i := lo; i < hi; i++ {
			dN[i], gN[i], dP[i], gP[i] = dn, gn, dp, gp
		}
	}
}

// coefOffset is the offset of the x-row (lj, lk)'s coefficient row in
// dec and gain.
func (pm *PML) coefOffset(lj, lk int) int {
	switch pm.Axis {
	case grid.Y:
		return lj * pm.nx
	case grid.Z:
		return lk * pm.nx
	}
	return 0
}

// PMLSet advances a rank's PML zones as one queue of x-rows on the rank's
// worker pool; the velocity update must run in place of the interior
// kernel for zone cells, and likewise the stress update. Zones are
// disjoint (BuildPML tiles the shell), and every row writes only its own
// cells and splits, so any schedule, including the inline one of a nil
// or serial pool, gives the same bits. A nil *PMLSet is a no-op.
type PMLSet struct {
	Zones []*PML
	rows  []pmlRow
	// velRow and strRow update one queued row; bound once by NewPMLSet so
	// a step allocates no closures.
	velRow, strRow func(int)

	// Arguments of the queue in flight, read by the row functions: the
	// field strides, dt/h, and whether the rows run the AVX2 row bodies.
	dy, dz int
	dth    float32
	avx2   bool
}

type pmlRow struct {
	z      *PML
	lj, lk int
}

// NewPMLSet queues the rows of zones; nil when there are none.
func NewPMLSet(zones []*PML) *PMLSet {
	if len(zones) == 0 {
		return nil
	}
	n := 0
	for _, z := range zones {
		n += z.ny * z.nz
	}
	ps := &PMLSet{Zones: zones, rows: make([]pmlRow, 0, n)}
	for _, z := range zones {
		for lk := 0; lk < z.nz; lk++ {
			for lj := 0; lj < z.ny; lj++ {
				ps.rows = append(ps.rows, pmlRow{z, lj, lk})
			}
		}
	}
	ps.velRow = func(r int) {
		w := ps.rows[r]
		w.z.velocityRow(w.lj, w.lk, ps.dy, ps.dz, ps.dth, ps.avx2)
	}
	ps.strRow = func(r int) {
		w := ps.rows[r]
		w.z.stressRow(w.lj, w.lk, ps.dy, ps.dz, ps.dth, ps.avx2)
	}
	return ps
}

// UpdateVelocity runs every zone's velocity update on pool p.
func (ps *PMLSet) UpdateVelocity(s *fd.State, m *medium.Medium, dt float64, p *sched.Pool) {
	if ps != nil {
		ps.run(s, m, dt, p, (*PML).velocityTables, ps.velRow)
	}
}

// UpdateStress runs every zone's stress update on pool p.
func (ps *PMLSet) UpdateStress(s *fd.State, m *medium.Medium, dt float64, p *sched.Pool) {
	if ps != nil {
		ps.run(s, m, dt, p, (*PML).stressTables, ps.strRow)
	}
}

func (ps *PMLSet) run(s *fd.State, m *medium.Medium, dt float64, p *sched.Pool,
	tables func(*PML, *fd.State, *medium.Medium), row func(int)) {
	for _, z := range ps.Zones {
		z.prepare(dt)
		tables(z, s, m)
	}
	_, ps.dy, ps.dz = s.VX.Strides()
	ps.dth, ps.avx2 = float32(dt/m.H), useAVX2
	p.ForEachN(len(ps.rows), row)
}

// Splits returns each zone's split backing array, in zone order (nil for
// a nil set): the zones' whole stepping state besides the wavefield,
// which a checkpoint must carry for restart to be bit-identical.
func (ps *PMLSet) Splits() [][]float32 {
	if ps == nil {
		return nil
	}
	out := make([][]float32, len(ps.Zones))
	for i, z := range ps.Zones {
		out[i] = z.splits
	}
	return out
}

// BuildPML constructs the non-overlapping shell of PML zones for a
// single-rank (or per-rank, with faces masked to owned physical faces)
// subgrid: x zones span the full y/z extent, y zones exclude the x zones,
// z zones exclude both. Returns the zones and the remaining interior box.
func BuildPML(d grid.Dims, faces FaceSet, width int, p, rcoef, vpMax, h float64) ([]*PML, fd.Box) {
	interior := fd.FullBox(d)
	var zones []*PML
	add := func(zone fd.Box, ax grid.Axis, sd grid.Side) {
		if !zone.Empty() {
			zones = append(zones, NewPML(zone, ax, sd, width, p, rcoef, vpMax, h))
		}
	}
	if faces.XLo {
		add(fd.Box{I0: 0, I1: width, J0: 0, J1: d.NY, K0: 0, K1: d.NZ}, grid.X, grid.Low)
		interior.I0 = width
	}
	if faces.XHi {
		add(fd.Box{I0: d.NX - width, I1: d.NX, J0: 0, J1: d.NY, K0: 0, K1: d.NZ}, grid.X, grid.High)
		interior.I1 = d.NX - width
	}
	if faces.YLo {
		add(fd.Box{I0: interior.I0, I1: interior.I1, J0: 0, J1: width, K0: 0, K1: d.NZ}, grid.Y, grid.Low)
		interior.J0 = width
	}
	if faces.YHi {
		add(fd.Box{I0: interior.I0, I1: interior.I1, J0: d.NY - width, J1: d.NY, K0: 0, K1: d.NZ}, grid.Y, grid.High)
		interior.J1 = d.NY - width
	}
	if faces.ZLo {
		add(fd.Box{I0: interior.I0, I1: interior.I1, J0: interior.J0, J1: interior.J1, K0: 0, K1: width}, grid.Z, grid.Low)
		interior.K0 = width
	}
	if faces.ZHi {
		add(fd.Box{I0: interior.I0, I1: interior.I1, J0: interior.J0, J1: interior.J1, K0: d.NZ - width, K1: d.NZ}, grid.Z, grid.High)
		interior.K1 = d.NZ - width
	}
	if interior.Empty() {
		panic(fmt.Sprintf("boundary: PML zones (width %d) consume the whole %v subgrid", width, d))
	}
	return zones, interior
}
