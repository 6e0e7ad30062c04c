package fd

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"unsafe"

	"repro/internal/cpufeat"
	"repro/internal/grid"
	"repro/internal/medium"
)

// setAVX2 selects the assembly row bodies (on) or the Go loop alone (off)
// for the rest of the test.
func setAVX2(tb testing.TB, on bool) {
	old := useAVX2
	useAVX2 = on
	tb.Cleanup(func() { useAVX2 = old })
}

// avx2Paths lists the row-body settings this host can run: the Go loop
// alone, and the assembly row bodies where the CPU has AVX2.
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
func seedSubnormalRows(s *State) {
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

// expectFieldsBitwise asserts that got and want hold the same bits in
// every element of every field, ghosts included.
func expectFieldsBitwise(t *testing.T, label string, got, want []*grid.Field3) {
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

// rowKernels lists the production kernels that have assembly row bodies.
var rowKernels = []struct {
	name string
	fn   func(*State, *medium.Medium, float64, Box)
}{{"velocity", velocityFused}, {"stress", stressFused}}

// The assembly row bodies must reproduce the Go loop bit for bit: every
// row width around the 8-lane boundary (vector part only, tail only, and
// both), boxes starting at odd and even columns, and operands in the
// subnormal range, which the vector units must not flush.
func TestRowBodiesMatchScalar(t *testing.T) {
	if !cpufeat.AVX2 {
		t.Skip("CPU or OS without AVX2: only the Go loop runs")
	}
	setAVX2(t, true)
	d := grid.Dims{NX: 51, NY: 10, NZ: 10}
	m := makeMedium(t, heteroQuerier(), d, 200)
	dt := m.StableDt(0.5)
	widths := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 20, 24, 48}
	want, got := NewState(d), NewState(d)
	for _, sub := range []bool{false, true} {
		seed := randomState(d, 1)
		if sub {
			seedSubnormalRows(seed)
		}
		for _, i0 := range []int{2, 3} {
			for _, ni := range widths {
				box := Box{I0: i0, I1: i0 + ni, J0: 1, J1: d.NY, K0: 0, K1: d.NZ}
				// Each kernel starts from the seeded state, since one
				// update mixes normal values into the subnormal blocks,
				// and is compared after every call, since a later update
				// can absorb a subnormal difference.
				for _, k := range rowKernels {
					copyState(want, seed)
					copyState(got, seed)
					for call := 0; call < 2; call++ {
						useAVX2 = false
						k.fn(want, m, dt, box)
						useAVX2 = true
						k.fn(got, m, dt, box)
						label := fmt.Sprintf("%s subnormal=%v I0=%d ni=%d call %d", k.name, sub, i0, ni, call)
						expectFieldsBitwise(t, label, got.Fields(), want.Fields())
					}
				}
			}
		}
	}
}

// The per-step kernels run once per tile per step, so they must not
// allocate, on either row-body path.
func TestKernelsAllocFree(t *testing.T) {
	d := grid.Dims{NX: 21, NY: 9, NZ: 8}
	m := makeMedium(t, heteroQuerier(), d, 200)
	dt := m.StableDt(0.5)
	s := randomState(d, 5)
	box := FullBox(d)
	for _, avx2 := range avx2Paths() {
		setAVX2(t, avx2)
		if n := testing.AllocsPerRun(10, func() { velocityFused(s, m, dt, box) }); n != 0 {
			t.Errorf("%s velocityFused allocates %v times per call", pathName(avx2), n)
		}
		if n := testing.AllocsPerRun(10, func() { stressFused(s, m, dt, box) }); n != 0 {
			t.Errorf("%s stressFused allocates %v times per call", pathName(avx2), n)
		}
	}
}

// BenchmarkRowKernels reports ns/cell of the production velocity and
// stress kernels over a 48x48x32 subgrid (the awp-run default) for the
// assembly and Go-loop row bodies, with normal operands and with
// seedSubnormalRows' blocks. The state is reset before every call,
// outside the timer, so each call sees the seeded operands.
func BenchmarkRowKernels(b *testing.B) {
	d := grid.Dims{NX: 48, NY: 48, NZ: 32}
	m := makeMedium(b, heteroQuerier(), d, 200)
	dt := m.StableDt(0.5)
	box := FullBox(d)
	for _, k := range rowKernels {
		for _, sub := range []bool{false, true} {
			seed := randomState(d, 1)
			if sub {
				seedSubnormalRows(seed)
			}
			for _, avx2 := range avx2Paths() {
				name := fmt.Sprintf("%s/%s/subnormal=%v", k.name, pathName(avx2), sub)
				b.Run(name, func(b *testing.B) {
					setAVX2(b, avx2)
					s := seed.Clone()
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						copyState(s, seed)
						b.StartTimer()
						k.fn(s, m, dt, box)
					}
					ns := float64(b.Elapsed().Nanoseconds())
					b.ReportMetric(ns/float64(b.N)/float64(d.Cells()), "ns/cell")
				})
			}
		}
	}
}

// copyState overwrites every field of dst with src's values.
func copyState(dst, src *State) {
	sf := src.Fields()
	for i, f := range dst.Fields() {
		copy(f.Data(), sf[i].Data())
	}
}
