package checkpoint

import (
	"errors"
	"testing"

	"repro/internal/core/fd"
	"repro/internal/grid"
	"repro/internal/mpiio"
	"repro/internal/pfs"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	dims := grid.Dims{NX: 7, NY: 5, NZ: 3}
	vals := []float32{1.5, -2.25, 0, 3e-38, 1e20}
	raw := Encode(123456789, dims, true, vals)
	h, got, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if h.Step != 123456789 || h.Dims != dims || !h.HasAtten || h.PayloadVals != len(vals) {
		t.Fatalf("header = %+v", h)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("payload[%d] = %v, want %v", i, got[i], vals[i])
		}
	}
}

// Steps past 2^24 were silently rounded by the v1 float32 header — the
// exact-int64 regression the format change exists for.
func TestLargeStepExact(t *testing.T) {
	const step = 1<<24 + 1 // not representable in float32
	raw := Encode(step, grid.Dims{NX: 1, NY: 1, NZ: 1}, false, []float32{0})
	h, _, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if h.Step != step {
		t.Fatalf("step %d round-tripped as %d", step, h.Step)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	dims := grid.Dims{NX: 4, NY: 4, NZ: 4}
	clean := Encode(10, dims, false, make([]float32, 64))

	for _, tc := range []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{"bit flip in payload", func(b []byte) []byte { b[headerLen+9] ^= 0x10; return b }, ErrChecksum},
		{"bit flip in header step", func(b []byte) []byte { b[17] ^= 0x01; return b }, ErrChecksum},
		{"truncated mid-payload", func(b []byte) []byte { return b[:len(b)-40] }, ErrChecksum},
		{"truncated to sub-header", func(b []byte) []byte { return b[:20] }, ErrTruncated},
		{"header only, no trailer room", func(b []byte) []byte { return b[:headerLen+2] }, ErrTruncated},
		{"wrong magic", func(b []byte) []byte { b[0] = 'X'; return b }, ErrNotCheckpoint},
		{"future version", func(b []byte) []byte { b[4] = 99; return b }, ErrVersion},
		{"empty", func(b []byte) []byte { return nil }, ErrTruncated},
	} {
		raw := tc.mutate(append([]byte(nil), clean...))
		if _, _, err := Decode(raw); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// Legacy v1 files (float32 header, no magic, no CRC) must be rejected
// with the versioned ErrNotCheckpoint, not silently mis-parsed.
func TestLegacyV1Rejected(t *testing.T) {
	v1 := mpiio.PutFloat32s([]float32{10, 6, 6, 6, 0, 1, 2, 3})
	if _, _, err := Decode(v1); !errors.Is(err, ErrNotCheckpoint) {
		t.Fatalf("err = %v, want ErrNotCheckpoint", err)
	}
	fsys := testFS()
	if err := fsys.WriteAt(FileName("c", 0, 10), 0, v1); err != nil {
		t.Fatal(err)
	}
	s := fd.NewState(grid.Dims{NX: 6, NY: 6, NZ: 6})
	if err := Load(fsys, "c", 0, 10, s, nil, nil); !errors.Is(err, ErrNotCheckpoint) {
		t.Fatalf("Load err = %v, want ErrNotCheckpoint", err)
	}
}

// FindLatestValid must pick the newest step where EVERY rank's file
// verifies, skipping truncated and bit-flipped files.
func TestFindLatestValidSkipsDamage(t *testing.T) {
	d := grid.Dims{NX: 6, NY: 6, NZ: 6}
	fsys := testFS()
	const nranks = 3

	save := func(rank, step int) {
		s := fd.NewState(d)
		s.VX.Set(1, 1, 1, float32(rank*1000+step))
		if _, err := Save(fsys, "c", rank, step, s, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, step := range []int{10, 20, 30} {
		for r := 0; r < nranks; r++ {
			save(r, step)
		}
	}
	if got := FindLatestValid(fsys, "c", nranks); got != 30 {
		t.Fatalf("clean scan = %d, want 30", got)
	}

	// Truncate rank 1's step-30 file: 30 is no longer coordinated.
	path := FileName("c", 1, 30)
	raw := make([]byte, fsys.Size(path))
	if err := fsys.ReadAt(path, 0, raw); err != nil {
		t.Fatal(err)
	}
	fsys.Remove(path)
	if err := fsys.WriteAt(path, 0, raw[:len(raw)/2]); err != nil {
		t.Fatal(err)
	}
	if got := FindLatestValid(fsys, "c", nranks); got != 20 {
		t.Fatalf("after truncation = %d, want 20", got)
	}

	// Flip one payload bit in rank 2's step-20 file: fall back to 10.
	path2 := FileName("c", 2, 20)
	raw2 := make([]byte, fsys.Size(path2))
	if err := fsys.ReadAt(path2, 0, raw2); err != nil {
		t.Fatal(err)
	}
	raw2[headerLen+5] ^= 0x40
	if err := fsys.WriteAt(path2, 0, raw2); err != nil {
		t.Fatal(err)
	}
	if got := FindLatestValid(fsys, "c", nranks); got != 10 {
		t.Fatalf("after bit flip = %d, want 10", got)
	}

	// A step missing one rank entirely never counts as coordinated.
	save(0, 40)
	save(1, 40)
	if got := FindLatestValid(fsys, "c", nranks); got != 10 {
		t.Fatalf("partial step counted: got %d, want 10", got)
	}
	if got := FindLatestValid(fsys, "empty", nranks); got != -1 {
		t.Fatalf("empty dir = %d, want -1", got)
	}
}

// A .tmp file left by a crashed writer must never be picked up.
func TestFindLatestValidIgnoresTempFiles(t *testing.T) {
	d := grid.Dims{NX: 6, NY: 6, NZ: 6}
	fsys := testFS()
	s := fd.NewState(d)
	if _, err := Save(fsys, "c", 0, 10, s, nil, nil); err != nil {
		t.Fatal(err)
	}
	// Orphaned in-flight temp for a newer step.
	orphan := Encode(50, d, false, make([]float32, 16))
	if err := fsys.WriteAt(FileName("c", 0, 50)+".tmp", 0, orphan); err != nil {
		t.Fatal(err)
	}
	if got := FindLatestValid(fsys, "c", 1); got != 10 {
		t.Fatalf("got %d, want 10 (tmp file must not count)", got)
	}
}

// Saves through a faulty PFS must either commit a CRC-valid file or be
// detectable — torn writes land but fail validation.
func TestSaveUnderPFSFaults(t *testing.T) {
	d := grid.Dims{NX: 6, NY: 6, NZ: 6}
	fsys := testFS()
	fsys.InjectFaults(pfs.FaultPlan{
		Seed: 31, WriteFailProb: 0.2, ShortWriteProb: 0.1, TornWriteProb: 0.1, MDSTimeoutProb: 0.1,
	})
	s := fd.NewState(d)
	s.VZ.Set(3, 3, 3, 7)

	valid := 0
	for step := 0; step < 40; step++ {
		if _, err := Save(fsys, "c", 0, step, s, nil, nil); err != nil {
			continue // retry budget exhausted: no commit, fine
		}
		s2 := fd.NewState(d)
		err := Load(fsys, "c", 0, step, s2, nil, nil)
		if err == nil {
			valid++
			if s2.VZ.At(3, 3, 3) != 7 {
				t.Fatalf("step %d: loaded wrong data", step)
			}
		}
	}
	if valid == 0 {
		t.Fatal("no checkpoint survived the fault plan")
	}
	st := fsys.FaultStats()
	if st.FailedWrites+st.ShortWrites+st.TornWrites+st.MDSTimeouts == 0 {
		t.Fatal("fault plan never fired")
	}
}
