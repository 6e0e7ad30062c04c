// Checkpoint file format v2 — the on-disk contract of the coordinated
// restart protocol (§III.F). Version 1 encoded step and dims as float32
// in-band with the payload, silently losing precision past 2^24 and
// offering no integrity check at all; a torn or bit-flipped file loaded
// cleanly and corrupted the restart. Version 2 fixes both:
//
//	offset  size  field
//	0       4     magic "AWPC" (little-endian uint32)
//	4       4     version (2)
//	8       4     flags (bit 0: attenuation memory variables present)
//	12      4     reserved (zero)
//	16      8     step   (int64, exact)
//	24      8     NX     (int64)
//	32      8     NY     (int64)
//	40      8     NZ     (int64)
//	48      4n    payload: n float32 values, little-endian: the nine
//	              wavefield components, the memory variables (if flagged),
//	              then any auxiliary arrays (M-PML zone splits)
//	48+4n   8     CRC64-ECMA of bytes [0, 48+4n)
//
// The trailer covers the header too, so a corrupted step/dims field is as
// detectable as a corrupted wavefield value, and a truncated file always
// fails (the length implied by the header never matches, or the CRC
// does not).
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"

	"repro/internal/grid"
	"repro/internal/mpiio"
)

const (
	// FormatMagic identifies a v2+ checkpoint file ("AWPC" LE).
	FormatMagic = uint32(0x43505741)
	// FormatVersion is the current format version.
	FormatVersion = uint32(2)

	flagAtten = uint32(1 << 0)

	headerLen  = 48
	trailerLen = 8
)

// Format/validation failure classes, wrapped in the errors Decode
// returns; classify with errors.Is.
var (
	// ErrNotCheckpoint marks a file without the v2 magic — including
	// legacy v1 files, which stored float32 step/dims with no magic and
	// no checksum and are rejected rather than trusted.
	ErrNotCheckpoint = errors.New("not a v2+ checkpoint file (legacy v1 float32-header files are no longer readable; re-checkpoint)")
	// ErrVersion marks an unsupported (future) format version.
	ErrVersion = errors.New("unsupported checkpoint format version")
	// ErrTruncated marks a file shorter than its header implies.
	ErrTruncated = errors.New("truncated checkpoint file")
	// ErrChecksum marks a CRC64 mismatch (bit rot, torn write).
	ErrChecksum = errors.New("checkpoint CRC64 mismatch")
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// Header is the decoded fixed-size prefix of a v2 checkpoint file.
type Header struct {
	Version  uint32
	Step     int64
	Dims     grid.Dims
	HasAtten bool
	// PayloadVals is the number of float32 payload values implied by the
	// file length (only set by Decode, which has the whole file).
	PayloadVals int
}

// Encode serializes one rank's state snapshot into a v2 checkpoint file
// image: header, float32 payload, CRC64 trailer.
func Encode(step int, dims grid.Dims, hasAtten bool, vals []float32) []byte {
	out := make([]byte, headerLen+4*len(vals)+trailerLen)
	binary.LittleEndian.PutUint32(out[0:], FormatMagic)
	binary.LittleEndian.PutUint32(out[4:], FormatVersion)
	flags := uint32(0)
	if hasAtten {
		flags |= flagAtten
	}
	binary.LittleEndian.PutUint32(out[8:], flags)
	binary.LittleEndian.PutUint64(out[16:], uint64(step))
	binary.LittleEndian.PutUint64(out[24:], uint64(dims.NX))
	binary.LittleEndian.PutUint64(out[32:], uint64(dims.NY))
	binary.LittleEndian.PutUint64(out[40:], uint64(dims.NZ))
	copy(out[headerLen:], mpiio.PutFloat32s(vals))
	sum := crc64.Checksum(out[:headerLen+4*len(vals)], crcTable)
	binary.LittleEndian.PutUint64(out[headerLen+4*len(vals):], sum)
	return out
}

// DecodeHeader parses and validates the fixed-size prefix without
// verifying the payload CRC (cheap screening for directory scans).
func DecodeHeader(raw []byte) (Header, error) {
	var h Header
	// Magic screens first: a legacy v1 file (float32 header, often shorter
	// than the v2 header) must report ErrNotCheckpoint, not ErrTruncated.
	if len(raw) >= 4 {
		if magic := binary.LittleEndian.Uint32(raw[0:]); magic != FormatMagic {
			return h, fmt.Errorf("checkpoint: magic %#x: %w", magic, ErrNotCheckpoint)
		}
	}
	if len(raw) < headerLen {
		return h, fmt.Errorf("checkpoint: %d-byte file: %w", len(raw), ErrTruncated)
	}
	h.Version = binary.LittleEndian.Uint32(raw[4:])
	if h.Version != FormatVersion {
		return h, fmt.Errorf("checkpoint: version %d (supported: %d): %w", h.Version, FormatVersion, ErrVersion)
	}
	flags := binary.LittleEndian.Uint32(raw[8:])
	h.HasAtten = flags&flagAtten != 0
	h.Step = int64(binary.LittleEndian.Uint64(raw[16:]))
	h.Dims = grid.Dims{
		NX: int(int64(binary.LittleEndian.Uint64(raw[24:]))),
		NY: int(int64(binary.LittleEndian.Uint64(raw[32:]))),
		NZ: int(int64(binary.LittleEndian.Uint64(raw[40:]))),
	}
	if h.Step < 0 || h.Dims.NX <= 0 || h.Dims.NY <= 0 || h.Dims.NZ <= 0 {
		return h, fmt.Errorf("checkpoint: implausible header (step %d dims %v): %w", h.Step, h.Dims, ErrNotCheckpoint)
	}
	return h, nil
}

// Decode parses a whole v2 file image, verifying the CRC64 trailer, and
// returns the header and payload values.
func Decode(raw []byte) (Header, []float32, error) {
	h, err := DecodeHeader(raw)
	if err != nil {
		return h, nil, err
	}
	body := len(raw) - trailerLen
	if body < headerLen || (body-headerLen)%4 != 0 {
		return h, nil, fmt.Errorf("checkpoint: %d-byte file: %w", len(raw), ErrTruncated)
	}
	want := binary.LittleEndian.Uint64(raw[body:])
	if got := crc64.Checksum(raw[:body], crcTable); got != want {
		return h, nil, fmt.Errorf("checkpoint: crc %#x, trailer %#x: %w", got, want, ErrChecksum)
	}
	h.PayloadVals = (body - headerLen) / 4
	return h, mpiio.GetFloat32s(raw[headerLen:body]), nil
}
