package solver

import (
	"fmt"
	"testing"

	"repro/internal/core/fd"
	"repro/internal/cvm"
	"repro/internal/mpi"
)

// expectResultsExact asserts exact float equality of seismograms and all
// four PGV maps — the rank-0 observables of every wavefield the run
// touches.
func expectResultsExact(t *testing.T, label string, ref, res *Result) {
	t.Helper()
	for r := range ref.Seismograms {
		for n := range ref.Seismograms[r] {
			if ref.Seismograms[r][n] != res.Seismograms[r][n] {
				t.Fatalf("%s: receiver %d sample %d differs from reference", label, r, n)
			}
		}
	}
	maps := [][2][]float64{{ref.PGVH, res.PGVH}, {ref.PGVX, res.PGVX}, {ref.PGVY, res.PGVY}, {ref.PGVZ, res.PGVZ}}
	for mi, m := range maps {
		for i := range m[0] {
			if m[0][i] != m[1][i] {
				t.Fatalf("%s: PGV map %d mismatch at %d: %g != %g", label, mi, i, m[0][i], m[1][i])
			}
		}
	}
}

// Every kernel variant — the zero value, the division-based whole-array
// Naive/Recip rungs and the precomputed aliases of the production
// row-window kernels (fused stress+attenuation sweep, PGV folded into the
// sponge pass) — must reproduce the serial Naive run bit-exactly, with
// sponge and M-PML boundaries, attenuation on and off, serial and pooled,
// on one and two ranks. The comm-model sweep then pins the production
// kernel against every halo discipline.
func TestFusedBitIdentityMatrix(t *testing.T) {
	q := cvm.SoCal(2400, 2400, 1600, 400)
	var zero fd.Variant
	variants := []fd.Variant{zero, fd.Naive, fd.Recip, fd.Blocked, fd.Unrolled, fd.Fused}
	for _, abc := range []ABCKind{SpongeABC, MPMLABC} {
		for _, atten := range []bool{true, false} {
			config := func(topo mpi.Cart, v fd.Variant) Options {
				opt := baseOptions(topo)
				opt.ABC = abc
				opt.PMLWidth = 4
				opt.Attenuation = atten
				opt.Variant = v
				return opt
			}
			// Serial Naive: whole-array kernels with inline divisions and
			// the two-pass attenuation update.
			ref, err := Run(q, config(mpi.NewCart(1, 1, 1), fd.Naive))
			if err != nil {
				t.Fatal(err)
			}
			for vi, v := range variants {
				for _, topo := range []mpi.Cart{mpi.NewCart(1, 1, 1), mpi.NewCart(2, 1, 1)} {
					for _, threads := range []int{1, 3} {
						opt := config(topo, v)
						opt.Threads = threads
						name := v.String()
						if vi == 0 {
							name = "zero-value"
						}
						label := fmt.Sprintf("abc=%d atten=%v %s %dx1x1 threads=%d", abc, atten, name, topo.PX, threads)
						res, err := Run(q, opt)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						expectResultsExact(t, label, ref, res)
					}
				}
			}
		}
	}

	ref, err := Run(q, baseOptions(mpi.NewCart(1, 1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []CommModel{Synchronous, Asynchronous, AsyncReduced, AsyncOverlap} {
		for _, threads := range []int{1, 4} {
			for _, coalesce := range []bool{false, true} {
				opt := baseOptions(mpi.NewCart(2, 2, 1))
				opt.Comm = model
				opt.Threads = threads
				opt.CoalesceHalo = coalesce
				opt.Variant = fd.Fused
				res, err := Run(q, opt)
				if err != nil {
					t.Fatalf("%v threads=%d coalesce=%v: %v", model, threads, coalesce, err)
				}
				expectResultsExact(t, fmt.Sprintf("%v threads=%d coalesce=%v", model, threads, coalesce), ref, res)
			}
		}
	}
}

// Unknown variants must be rejected at configuration time, not panic deep
// inside the first kernel call.
func TestUnknownVariantRejected(t *testing.T) {
	opt := baseOptions(mpi.NewCart(1, 1, 1))
	opt.Variant = fd.Variant(99)
	if _, err := Run(cvm.HardRock(), opt); err == nil {
		t.Fatal("Variant=99 accepted; must be rejected by Run")
	}
	opt.Variant = fd.Variant(-1)
	if _, err := Run(cvm.HardRock(), opt); err == nil {
		t.Fatal("Variant=-1 accepted; must be rejected by Run")
	}
}
