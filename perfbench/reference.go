package main

import (
	"crypto/sha256"
	"embed"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/awp"
	"repro/internal/agg"
	"repro/internal/core/solver"
	"repro/internal/pfs"
)

// The reference outputs come from the program's own entry points (awp.Run
// for awp-default and m8-mpml, solver.Run for the pipeline's solve) at the
// commit that added the benchmark; -write-refs regenerates them.
//
//go:embed refs/*.json
var refFS embed.FS

// refVariant is the reference output of one workload variant. The hashes
// decide correctness (bit-identical outputs); the float32 copies give the
// size of a mismatch.
type refVariant struct {
	Variant    int    `json:"variant"`
	PGVSHA     string `json:"pgvh_sha256"`
	SeisSHA    string `json:"seis_sha256"`
	SurfaceSHA string `json:"surface_sha256,omitempty"`
	PGV        string `json:"pgvh_f32"`
	Seis       string `json:"seis_f32"`
}

func loadReference(workload string, variant int) (refVariant, error) {
	data, err := refFS.ReadFile("refs/" + workload + ".json")
	if err != nil {
		return refVariant{}, err
	}
	var refs []refVariant
	if err := json.Unmarshal(data, &refs); err != nil {
		return refVariant{}, fmt.Errorf("reference %s: %w", workload, err)
	}
	for _, r := range refs {
		if r.Variant == variant {
			return r, nil
		}
	}
	return refVariant{}, fmt.Errorf("reference %s has no variant %d", workload, variant)
}

// newRefVariant records a result (and the surface file hash, if any).
func newRefVariant(variant int, res *solver.Result, surfaceSHA string) refVariant {
	pgv32 := make([]float32, len(res.PGVH))
	for i, v := range res.PGVH {
		pgv32[i] = float32(v)
	}
	seis := flattenSeis(res.Seismograms)
	return refVariant{
		Variant: variant, PGVSHA: sha64(res.PGVH), SeisSHA: sha32(seis), SurfaceSHA: surfaceSHA,
		PGV:  base64.StdEncoding.EncodeToString(le32(pgv32)),
		Seis: base64.StdEncoding.EncodeToString(le32(seis)),
	}
}

// check compares a result with the reference. ok requires bit-identical
// PGV, seismograms and (when recorded) surface file; seisRelL2 and
// pgvRelErr measure any difference in float32 precision.
func (r refVariant) check(res *solver.Result, surfaceSHA string) (seisRelL2, pgvRelErr float64, ok bool) {
	if res == nil {
		return 1, 1, false
	}
	refPGV, err1 := decode32(r.PGV)
	refSeis, err2 := decode32(r.Seis)
	if err1 != nil || err2 != nil {
		return 1, 1, false
	}
	got := make([]float64, len(res.PGVH))
	for i, v := range res.PGVH {
		got[i] = float64(float32(v))
	}
	pgvRelErr = maxRelErr(got, refPGV)
	seis := flattenSeis(res.Seismograms)
	gotSeis := make([]float64, len(seis))
	for i, v := range seis {
		gotSeis[i] = float64(v)
	}
	seisRelL2 = relL2(gotSeis, refSeis)
	ok = sha64(res.PGVH) == r.PGVSHA && sha32(seis) == r.SeisSHA && surfaceSHA == r.SurfaceSHA
	return seisRelL2, pgvRelErr, ok
}

func flattenSeis(s [][][3]float32) []float32 {
	var out []float32
	for _, rec := range s {
		for _, v := range rec {
			out = append(out, v[0], v[1], v[2])
		}
	}
	return out
}

func le32(xs []float32) []byte {
	b := make([]byte, 4*len(xs))
	for i, v := range xs {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
	}
	return b
}

func sha32(xs []float32) string {
	sum := sha256.Sum256(le32(xs))
	return hex.EncodeToString(sum[:])
}

func sha64(xs []float64) string {
	b := make([]byte, 8*len(xs))
	for i, v := range xs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func decode32(s string) ([]float64, error) {
	b, err := base64.StdEncoding.DecodeString(s)
	if err != nil || len(b)%4 != 0 {
		return nil, fmt.Errorf("bad reference array")
	}
	out := make([]float64, len(b)/4)
	for i := range out {
		out[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:])))
	}
	return out, nil
}

// fileSHA256 hashes a file on the simulated parallel file system.
func fileSHA256(fs *pfs.FS, path string) (string, error) {
	n := fs.Size(path)
	if n < 0 {
		return "", fmt.Errorf("%s: not found", path)
	}
	buf := make([]byte, n)
	if err := fs.ReadAt(path, 0, buf); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:]), nil
}

// writeReferences regenerates refs/*.json (run from the perfbench
// directory) through awp.Run and solver.Run — not through the
// benchmark's own stepping loop, which the references check.
func writeReferences() error {
	refs := map[string][]refVariant{}
	for v := 0; v < variants; v++ {
		for _, wl := range []struct {
			name string
			dims awp.Dims
			abc  solver.ABCKind
			rank int
		}{{"awp-default", awp.Dims{NX: 48, NY: 48, NZ: 32}, awp.SpongeABC, 1}, {"m8-mpml", awp.Dims{NX: 64, NY: 64, NZ: 32}, awp.MPMLABC, 2}} {
			q, sc := awpScenario(wl.dims, wl.abc, wl.rank, v)
			res, err := awp.Run(q, sc)
			if err != nil {
				return err
			}
			refs[wl.name] = append(refs[wl.name], newRefVariant(v, res, ""))
		}
		res, surfaceSHA, err := pipelineReference(v)
		if err != nil {
			return err
		}
		refs["pipeline"] = append(refs["pipeline"], newRefVariant(v, res, surfaceSHA))
	}
	for name, rv := range refs {
		data, err := json.MarshalIndent(rv, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join("refs", name+".json"), append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// pipelineReference runs the pipeline's solve stage with solver.Run.
func pipelineReference(variant int) (*solver.Result, string, error) {
	srcs, err := pipelineSource(variant).Generate()
	if err != nil {
		return nil, "", err
	}
	scratch := pfs.New(pfs.Jaguar())
	scratch.SetStripe("out/", 0, 4<<20)
	sp := pipelineSolve(pipelineModel(), srcs, scratch, agg.Config{Aggregators: 2, OpenThrottle: agg.DefaultOpenThrottle})
	res, err := solver.Run(sp.q, sp.opt)
	if err != nil {
		return nil, "", err
	}
	sha, err := fileSHA256(scratch, "out/surface.bin")
	return res, sha, err
}
