package attenuation

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"unsafe"

	"repro/internal/core/fd"
	"repro/internal/cpufeat"
	"repro/internal/cvm"
	"repro/internal/grid"
)

// setAVX2 selects the assembly row body (on) or the Go loop alone (off)
// for the rest of the test.
func setAVX2(tb testing.TB, on bool) {
	old := useAVX2
	useAVX2 = on
	tb.Cleanup(func() { useAVX2 = old })
}

// avx2Paths lists the row-body settings this host can run.
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

// seedSubnormalRows scales blocks of 5x5 rows, about one row in ten,
// towards the float32 subnormal range (|x| < 2^-126): rows whose padded
// (j, k) both fall in [5, 10) modulo 16, ghosts included. Velocities are
// scaled to subnormal values and stresses to values 1e7 larger, the
// ratio the wave impedance rho*vp sets, as in the precursor of the
// leading wavefront. The centre row of each block then reads subnormal
// velocities through every stencil arm (radius 2 in y and z), and both
// kernels produce subnormal intermediates and results, so flush-to-zero
// or denormals-are-zero arithmetic would change them.
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

// expectBitwise asserts that got and want hold the same bits in every
// element, ghosts included.
func expectBitwise(t *testing.T, label string, got, want []*grid.Field3) {
	t.Helper()
	for fi, f := range got {
		a, b := f.Data(), want[fi].Data()
		if bytes.Equal(float32Bytes(a), float32Bytes(b)) {
			continue
		}
		for n := range a {
			if math.Float32bits(a[n]) != math.Float32bits(b[n]) {
				t.Fatalf("%s: field %d idx %d: %g (%#08x) != %g (%#08x)", label, fi, n,
					a[n], math.Float32bits(a[n]), b[n], math.Float32bits(b[n]))
			}
		}
	}
}

// float32Bytes views a as its bytes, so that a whole field compares with
// one memequal (the element loop is slow under the race detector).
func float32Bytes(a []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(a))), 4*len(a))
}

// memVars lists the six memory variables in a fixed order.
func (a *Model) memVars() []*grid.Field3 {
	return []*grid.Field3{a.ZXX, a.ZYY, a.ZZZ, a.ZXY, a.ZXZ, a.ZYZ}
}

// FusedStress's assembly row body must reproduce the Go loop bit for bit
// on every stress and memory variable: every row width around the 8-lane
// boundary, boxes starting at odd and even columns (the lane parity of
// the mechanism vectors), every coarse-graining origin parity, and
// operands in the subnormal range.
func TestFusedRowBodyMatchesScalar(t *testing.T) {
	if !cpufeat.AVX2 {
		t.Skip("CPU or OS without AVX2: only the Go loop runs")
	}
	setAVX2(t, true)
	d := grid.Dims{NX: 51, NY: 10, NZ: 10}
	m := makeMedium(t, cvm.SoCal(5100, 1000, 1000, 400), d, 100)
	// The model's Qp = 2Qs with vp/vs = sqrt(3) clamps the lambda deficit
	// DLam to 0; Qp = Qs makes it positive, so the trace and DLam terms
	// of the memory-variable drive are exercised.
	copy(m.QP.Data(), m.QS.Data())
	dt := m.StableDt(0.5)
	widths := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 20, 24, 48}
	sWant, sGot := fd.NewState(d), fd.NewState(d)
	aWant, aGot := New(m, DefaultBand, dt), New(m, DefaultBand, dt)
	for _, sub := range []bool{false, true} {
		seed := fillStateSeeded(d, 1)
		if sub {
			seedSubnormalRows(seed)
		}
		for _, i0 := range []int{2, 3} {
			for origin := 0; origin < 8; origin++ {
				for _, ni := range widths {
					box := fd.Box{I0: i0, I1: i0 + ni, J0: 1, J1: d.NY, K0: 0, K1: d.NZ}
					copyFields(sWant.Fields(), seed.Fields())
					copyFields(sGot.Fields(), seed.Fields())
					for _, z := range append(aWant.memVars(), aGot.memVars()...) {
						clear(z.Data())
					}
					aWant.Origin = [3]int{origin & 1, origin >> 1 & 1, origin >> 2 & 1}
					aGot.Origin = aWant.Origin
					// Compare after every step: a subnormal difference is
					// absorbed once a later update adds a normal value to it.
					for step := 0; step < 2; step++ {
						useAVX2 = false
						aWant.FusedStress(sWant, m, dt, box)
						useAVX2 = true
						aGot.FusedStress(sGot, m, dt, box)
						label := fmt.Sprintf("subnormal=%v I0=%d origin=%03b ni=%d step %d", sub, i0, origin, ni, step)
						expectBitwise(t, label, sGot.Fields(), sWant.Fields())
						expectBitwise(t, label+" memvars", aGot.memVars(), aWant.memVars())
					}
				}
			}
		}
	}
}

// BenchmarkRowKernels reports ns/cell of FusedStress over a 48x48x32
// subgrid (the awp-run default) for the assembly and Go-loop row bodies,
// with normal operands and with seedSubnormalRows' blocks. The wavefield
// and memory variables are reset before every call, outside the timer.
func BenchmarkRowKernels(b *testing.B) {
	d := grid.Dims{NX: 48, NY: 48, NZ: 32}
	m := makeMedium(b, cvm.SoCal(4800, 4800, 3200, 400), d, 100)
	dt := m.StableDt(0.5)
	box := fd.FullBox(d)
	for _, sub := range []bool{false, true} {
		seed := fillStateSeeded(d, 1)
		if sub {
			seedSubnormalRows(seed)
		}
		seedModel := New(m, DefaultBand, dt)
		seedModel.FusedStress(seed, m, dt, box) // nonzero memory variables
		for _, avx2 := range avx2Paths() {
			b.Run(fmt.Sprintf("fused-stress/%s/subnormal=%v", pathName(avx2), sub), func(b *testing.B) {
				setAVX2(b, avx2)
				s, a := seed.Clone(), New(m, DefaultBand, dt)
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					copyFields(s.Fields(), seed.Fields())
					copyFields(a.memVars(), seedModel.memVars())
					b.StartTimer()
					a.FusedStress(s, m, dt, box)
				}
				ns := float64(b.Elapsed().Nanoseconds())
				b.ReportMetric(ns/float64(b.N)/float64(d.Cells()), "ns/cell")
			})
		}
	}
}

// copyFields overwrites each field of dst with the matching field of src.
func copyFields(dst, src []*grid.Field3) {
	for i, f := range dst {
		copy(f.Data(), src[i].Data())
	}
}
