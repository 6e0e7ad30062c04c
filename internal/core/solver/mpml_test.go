package solver

import (
	"fmt"
	"testing"

	"repro/internal/core/fd"
	"repro/internal/cvm"
	"repro/internal/mpi"
)

// The M-PML zones must not break the decomposition/threading invariant:
// every topology, comm model, thread count and kernel variant reproduces
// the serial single-rank Precomp run bit for bit. Zones are per-rank
// (owned physical faces only) and their rows run as one pool queue, so
// this pins both the zone tiling across ranks and the row scheduling.
func TestMPMLBitIdentityMatrix(t *testing.T) {
	q := cvm.SoCal(2400, 2400, 1600, 400)
	mpml := func(topo mpi.Cart) Options {
		opt := baseOptions(topo)
		opt.ABC = MPMLABC
		opt.PMLWidth = 4
		return opt
	}
	ref, err := Run(q, mpml(mpi.NewCart(1, 1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range []mpi.Cart{mpi.NewCart(1, 1, 1), mpi.NewCart(2, 1, 1), mpi.NewCart(2, 2, 1)} {
		for _, model := range []CommModel{Synchronous, Asynchronous, AsyncReduced, AsyncOverlap} {
			for _, threads := range []int{1, 3} {
				for _, variant := range []fd.Variant{fd.Blocked, fd.Precomp, fd.Fused} {
					opt := mpml(topo)
					opt.Comm = model
					opt.Threads = threads
					opt.Variant = variant
					label := fmt.Sprintf("%dx%dx%d %v threads=%d %v", topo.PX, topo.PY, topo.PZ, model, threads, variant)
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
