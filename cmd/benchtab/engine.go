package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/core/fd"
	"repro/internal/core/sched"
	"repro/internal/core/solver"
	"repro/internal/core/source"
	"repro/internal/cvm"
	"repro/internal/decomp"
	"repro/internal/grid"
	"repro/internal/medium"
	"repro/internal/mpi"
)

// engineResult is one row of the machine-readable benchmark report.
type engineResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	MCellsPerS  float64 `json:"mcells_per_s,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Iterations  int     `json:"iterations"`
}

// engineReport is the BENCH_1.json schema: environment first, so a reader
// can judge whether threaded rows had hardware parallelism available.
type engineReport struct {
	GeneratedBy string         `json:"generated_by"`
	GOOS        string         `json:"goos"`
	GOARCH      string         `json:"goarch"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	NumCPU      int            `json:"num_cpu"`
	Warning     string         `json:"warning,omitempty"`
	Results     []engineResult `json:"results"`
}

// engine measures the three layers of the persistent execution engine —
// pooled kernel scheduling, threaded overlap in the full solver, and the
// zero-copy message path — and writes the rows to outPath as JSON.
func engine(outPath string) {
	header("Engine: persistent pool, threaded overlap, zero-copy messaging")
	rep := engineReport{
		GeneratedBy: "cmd/benchtab -exp engine",
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
	}
	fmt.Printf("GOMAXPROCS=%d NumCPU=%d (threaded rows need >1 for real speedup)\n",
		rep.GOMAXPROCS, rep.NumCPU)
	if rep.GOMAXPROCS == 1 {
		rep.Warning = "GOMAXPROCS=1: pool workers and ranks share one OS thread; " +
			"threaded and overlap rows measure scheduling overhead, not parallel speedup"
		fmt.Printf("WARNING: %s\n", rep.Warning)
	}
	fmt.Println()

	add := func(name string, cells int, r testing.BenchmarkResult) {
		row := engineResult{
			Name:        name,
			NsPerOp:     float64(r.NsPerOp()),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			Iterations:  r.N,
		}
		if cells > 0 && r.T > 0 {
			row.MCellsPerS = float64(cells) * float64(r.N) / r.T.Seconds() / 1e6
		}
		rep.Results = append(rep.Results, row)
		fmt.Printf("%-36s %14.0f ns/op %10.2f Mcells/s %8d B/op %6d allocs/op\n",
			name, row.NsPerOp, row.MCellsPerS, row.BytesPerOp, row.AllocsPerOp)
	}

	// Layer 1: scheduling. The production kernels drained as j/k tiles by
	// the persistent pool.
	d := grid.Dims{NX: 64, NY: 64, NZ: 64}
	dc, err := decomp.New(d, mpi.NewCart(1, 1, 1))
	if err != nil {
		panic(err)
	}
	m := medium.FromCVM(cvm.HardRock(), dc, dc.SubFor(0), 200)
	dt := m.StableDt(0.5)
	box := fd.FullBox(d)
	for _, threads := range []int{1, 2, 4} {
		th := threads
		add(fmt.Sprintf("pool/threads=%d", th), d.Cells(),
			testing.Benchmark(func(b *testing.B) {
				p := sched.NewPool(th)
				defer p.Close()
				s := fd.NewState(d)
				s.VX.Set(32, 32, 32, 1)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					fd.UpdateVelocityTiled(s, m, dt, box, fd.Blocked, fd.DefaultBlocking, p)
					fd.UpdateStressTiled(s, m, dt, box, fd.Blocked, fd.DefaultBlocking, p)
				}
			}))
	}

	// Layer 2: the overlap model end to end, serial vs pooled.
	q := cvm.Homogeneous(cvm.Material{Vp: 6000, Vs: 3464, Rho: 2700})
	og := grid.Dims{NX: 128, NY: 128, NZ: 128}
	for _, threads := range []int{1, 4} {
		th := threads
		add(fmt.Sprintf("overlap/threads=%d", th), og.Cells()*2,
			testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_, err := solver.Run(q, solver.Options{
						Global: og, H: 100, Steps: 2,
						Topo: mpi.NewCart(2, 1, 1),
						Comm: solver.AsyncOverlap, Threads: th,
						Sources: []source.SampledSource{(source.PointSource{
							GI: 64, GJ: 64, GK: 64, M0: 1e15,
							Tensor: source.Explosion, STF: source.GaussianPulse(0.05, 0.01),
						}).Sample(0.002, 100)},
					})
					if err != nil {
						b.Fatal(err)
					}
				}
			}))
	}

	// Layer 3: message path. One ghost face of a 64^3 subgrid; the copy
	// path allocates the defensive copy every send, the lending path
	// recycles pooled buffers (0 allocs/op in steady state).
	const faceN = 2 * 64 * 64
	add("halo-send/copy", 0, testing.Benchmark(func(b *testing.B) {
		w := mpi.NewWorld(2)
		b.ResetTimer()
		w.Run(func(c *mpi.Comm) {
			buf := make([]float32, faceN)
			if c.Rank() == 0 {
				for i := 0; i < b.N; i++ {
					c.Send(1, 1, buf)
				}
			} else {
				for i := 0; i < b.N; i++ {
					c.Recv(buf, 0, 1)
				}
			}
		})
	}))
	add("halo-send/zero-copy", 0, testing.Benchmark(func(b *testing.B) {
		w := mpi.NewWorld(2)
		b.ResetTimer()
		w.Run(func(c *mpi.Comm) {
			if c.Rank() == 0 {
				src := make([]float32, faceN)
				for i := 0; i < b.N; i++ {
					out := mpi.GetBuffer(faceN)
					copy(out, src)
					c.SendOwned(1, 1, out)
				}
			} else {
				for i := 0; i < b.N; i++ {
					in, _ := c.MustRecvTake(0, 1)
					mpi.PutBuffer(in)
				}
			}
		})
	}))

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		panic(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchtab: write %s: %v\n", outPath, err)
		os.Exit(1)
	}
	fmt.Printf("\nwrote %s (%d rows)\n", outPath, len(rep.Results))
}
