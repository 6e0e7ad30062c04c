package fd

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core/sched"
	"repro/internal/grid"
)

// The hybrid mode's defining property: k-slab threading is bit-identical
// to the serial kernel (cells are independent within a kernel
// application).
func TestParallelKernelsBitIdentical(t *testing.T) {
	d := grid.Dims{NX: 16, NY: 14, NZ: 18}
	m := makeMedium(t, heteroQuerier(), d, 200)
	dt := m.StableDt(0.5)
	box := FullBox(d)

	ref := randomState(d, 11)
	UpdateVelocity(ref, m, dt, box, Precomp, Blocking{})
	UpdateStress(ref, m, dt, box, Precomp, Blocking{})

	for _, threads := range []int{2, 3, 7, 32} {
		s := randomState(d, 11)
		UpdateVelocityParallel(s, m, dt, box, Precomp, Blocking{}, threads)
		UpdateStressParallel(s, m, dt, box, Precomp, Blocking{}, threads)
		if diff := s.L2Diff(ref); diff != 0 {
			t.Fatalf("threads=%d: differs from serial by %g", threads, diff)
		}
	}
}

func TestForEachKSlabCoversBox(t *testing.T) {
	box := Box{1, 5, 0, 3, 2, 19}
	var mu sync.Mutex
	counts := map[int]int{}
	ForEachKSlab(box, 4, func(b Box) {
		if b.I0 != box.I0 || b.I1 != box.I1 || b.J0 != box.J0 || b.J1 != box.J1 {
			t.Errorf("i/j extents altered: %v", b)
		}
		mu.Lock()
		defer mu.Unlock()
		for k := b.K0; k < b.K1; k++ {
			counts[k]++
		}
	})
	for k := box.K0; k < box.K1; k++ {
		if counts[k] != 1 {
			t.Fatalf("k=%d covered %d times", k, counts[k])
		}
	}
	if len(counts) != box.K1-box.K0 {
		t.Fatalf("covered %d slabs, want %d", len(counts), box.K1-box.K0)
	}
}

func TestForEachKSlabDegenerate(t *testing.T) {
	// Empty box: no calls.
	called := 0
	ForEachKSlab(Box{0, 0, 0, 1, 0, 1}, 4, func(Box) { called++ })
	if called != 0 {
		t.Fatal("empty box invoked fn")
	}
	// More threads than slabs: still exact cover.
	var n atomic.Int64
	ForEachKSlab(Box{0, 2, 0, 2, 0, 3}, 16, func(b Box) { n.Add(int64(b.K1 - b.K0)) })
	if n.Load() != 3 {
		t.Fatalf("covered %d k-levels, want 3", n.Load())
	}
	// Single thread: one call with the full box.
	calls := 0
	ForEachKSlab(Box{0, 2, 0, 2, 0, 5}, 1, func(b Box) {
		calls++
		if b.K1-b.K0 != 5 {
			t.Fatal("serial path split the box")
		}
	})
	if calls != 1 {
		t.Fatalf("serial path made %d calls", calls)
	}
}

// The pooled tile scheduler must reproduce the serial kernel bit-exactly
// for every variant — tiles are the forEachBlock panels, and cells are
// independent within one kernel application.
func TestTiledKernelsBitIdenticalAllVariants(t *testing.T) {
	d := grid.Dims{NX: 16, NY: 14, NZ: 18}
	m := makeMedium(t, heteroQuerier(), d, 200)
	dt := m.StableDt(0.5)
	box := FullBox(d)
	blk := Blocking{JBlock: 4, KBlock: 8}

	for _, v := range allVariants() {
		ref := randomState(d, 23)
		UpdateVelocity(ref, m, dt, box, v, blk)
		UpdateStress(ref, m, dt, box, v, blk)

		for _, threads := range []int{1, 2, 5, 16} {
			p := sched.NewPool(threads)
			s := randomState(d, 23)
			UpdateVelocityTiled(s, m, dt, box, v, blk, p)
			UpdateStressTiled(s, m, dt, box, v, blk, p)
			p.Close()
			if diff := s.L2Diff(ref); diff != 0 {
				t.Fatalf("variant=%v threads=%d: differs from serial by %g", v, threads, diff)
			}
		}
	}
}

func TestTilesCoverBoxExactlyOnce(t *testing.T) {
	box := Box{1, 9, 2, 15, 3, 40}
	blk := Blocking{JBlock: 4, KBlock: 16}
	seen := map[[3]int]int{}
	for _, b := range Tiles(box, blk) {
		if b.I0 != box.I0 || b.I1 != box.I1 {
			t.Errorf("tile altered i extents: %+v", b)
		}
		if b.J1-b.J0 > blk.JBlock || b.K1-b.K0 > blk.KBlock {
			t.Errorf("tile %+v exceeds blocking %+v", b, blk)
		}
		for k := b.K0; k < b.K1; k++ {
			for j := b.J0; j < b.J1; j++ {
				seen[[3]int{0, j, k}]++
			}
		}
	}
	for k := box.K0; k < box.K1; k++ {
		for j := box.J0; j < box.J1; j++ {
			if seen[[3]int{0, j, k}] != 1 {
				t.Fatalf("(j=%d,k=%d) covered %d times", j, k, seen[[3]int{0, j, k}])
			}
		}
	}
	if want := (box.J1 - box.J0) * (box.K1 - box.K0); len(seen) != want {
		t.Fatalf("covered %d cells, want %d", len(seen), want)
	}
}

func TestTilesDegenerate(t *testing.T) {
	if got := Tiles(Box{0, 0, 0, 4, 0, 4}, DefaultBlocking); got != nil {
		t.Fatalf("empty box yielded %d tiles", len(got))
	}
	// Tile larger than box: a single tile equal to the box.
	one := Tiles(Box{0, 3, 0, 5, 0, 7}, Blocking{JBlock: 64, KBlock: 64})
	if len(one) != 1 || one[0] != (Box{0, 3, 0, 5, 0, 7}) {
		t.Fatalf("oversized blocking gave %v", one)
	}
	// Non-positive blocking falls back to defaults rather than dividing by
	// zero.
	n := len(Tiles(Box{0, 8, 0, 32, 0, 32}, Blocking{}))
	dj := (32 + DefaultBlocking.JBlock - 1) / DefaultBlocking.JBlock
	dk := (32 + DefaultBlocking.KBlock - 1) / DefaultBlocking.KBlock
	if n != dj*dk {
		t.Fatalf("default-blocking tile count = %d, want %d", n, dj*dk)
	}
}

func TestForEachTileSerialOrderDeterministic(t *testing.T) {
	box := Box{0, 4, 0, 20, 0, 20}
	blk := Blocking{JBlock: 8, KBlock: 8}
	var ref, got []Box
	forEachBlock(box, blk, func(b Box) { ref = append(ref, b) })
	ForEachTile(box, blk, nil, func(b Box) { got = append(got, b) })
	if len(ref) != len(got) {
		t.Fatalf("%d tiles via ForEachTile, want %d", len(got), len(ref))
	}
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("tile %d = %+v, want forEachBlock order %+v", i, got[i], ref[i])
		}
	}
}

func TestForEachTileMultiCombinesQueues(t *testing.T) {
	p := sched.NewPool(4)
	defer p.Close()
	boxes := []Box{
		{0, 2, 0, 10, 0, 10},
		{}, // empty: contributes nothing
		{5, 6, 0, 3, 0, 33},
	}
	var mu sync.Mutex
	cells := 0
	ForEachTileMulti(boxes, Blocking{JBlock: 4, KBlock: 4}, p, func(b Box) {
		n := (b.I1 - b.I0) * (b.J1 - b.J0) * (b.K1 - b.K0)
		mu.Lock()
		cells += n
		mu.Unlock()
	})
	want := 2*10*10 + 1*3*33
	if cells != want {
		t.Fatalf("covered %d cells, want %d", cells, want)
	}
	// All-empty input: no pool interaction, no calls.
	calls := 0
	ForEachTileMulti([]Box{{}, {}}, DefaultBlocking, p, func(Box) { calls++ })
	if calls != 0 {
		t.Fatal("empty boxes invoked fn")
	}
}
