// Package repro's benchmark suite: one testing.B benchmark per table and
// figure of the paper's evaluation, plus real-hardware ablations of the
// §IV optimizations (kernel variants, communication models, overlap, I/O
// aggregation). Petascale-scale quantities are evaluated through the
// validated performance model; laptop-scale benches run the real solver.
//
// Run: go test -bench=. -benchmem
package repro

import (
	"fmt"
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
	"repro/internal/output"
	"repro/internal/perfmodel"
	"repro/internal/pfs"
)

// --- Table 1 / Table 2 / Fig 12 / Fig 13 / Fig 14: performance model ---

func BenchmarkTable1MachineModel(b *testing.B) {
	v, _ := perfmodel.VersionByName("7.2")
	g := grid.Dims{NX: 3000, NY: 1500, NZ: 800}
	for _, m := range perfmodel.Machines {
		b.Run(m.Name, func(b *testing.B) {
			j := perfmodel.Job{Machine: m, Version: v, Global: g, Cores: m.CoresUsed}
			var t float64
			for i := 0; i < b.N; i++ {
				t = perfmodel.SustainedTflops(j)
			}
			b.ReportMetric(t, "Tflops")
		})
	}
}

func BenchmarkTable2Evolution(b *testing.B) {
	for _, v := range perfmodel.Versions {
		b.Run("v"+v.Name, func(b *testing.B) {
			j := perfmodel.M8Job(v)
			var st float64
			for i := 0; i < b.N; i++ {
				st = perfmodel.StepTime(j).Total()
			}
			b.ReportMetric(st, "s/step")
			b.ReportMetric(perfmodel.SustainedTflops(j), "Tflops")
		})
	}
}

func BenchmarkFig12Breakdown(b *testing.B) {
	for _, cores := range []int{65610, 223074} {
		for _, name := range []string{"6.0", "7.2"} {
			v, _ := perfmodel.VersionByName(name)
			b.Run(fmt.Sprintf("cores=%d/v%s", cores, name), func(b *testing.B) {
				j := perfmodel.M8Job(v)
				j.Cores = cores
				var bd perfmodel.Breakdown
				for i := 0; i < b.N; i++ {
					bd = perfmodel.StepTime(j)
				}
				b.ReportMetric(bd.Comp, "Tcomp")
				b.ReportMetric(bd.Comm, "Tcomm")
				b.ReportMetric(bd.Sync, "Tsync")
				b.ReportMetric(bd.IO, "T_IO")
			})
		}
	}
}

func BenchmarkFig13TimeToSolution(b *testing.B) {
	for _, v := range perfmodel.Versions {
		b.Run("v"+v.Name, func(b *testing.B) {
			j := perfmodel.M8Job(v)
			var tts float64
			for i := 0; i < b.N; i++ {
				tts = perfmodel.TimeToSolution(j, 1000)
			}
			b.ReportMetric(tts, "s/1000steps")
		})
	}
}

func BenchmarkFig14StrongScaling(b *testing.B) {
	v72, _ := perfmodel.VersionByName("7.2")
	m8 := grid.Dims{NX: 20250, NY: 10125, NZ: 2125}
	cores := []int{16384, 65610, 223074}
	for _, p := range cores {
		b.Run(fmt.Sprintf("jaguar-%d", p), func(b *testing.B) {
			var pt []perfmodel.ScalingPoint
			for i := 0; i < b.N; i++ {
				pt = perfmodel.StrongScaling(perfmodel.Jaguar, v72, m8, []int{p})
			}
			b.ReportMetric(pt[0].Efficiency, "efficiency")
			b.ReportMetric(pt[0].Tflops, "Tflops")
		})
	}
}

// --- §IV.B ablation: real kernel variants on this machine ---

func benchMedium(b *testing.B, d grid.Dims) *medium.Medium {
	b.Helper()
	dc, err := decomp.New(d, mpi.NewCart(1, 1, 1))
	if err != nil {
		b.Fatal(err)
	}
	return medium.FromCVM(cvm.HardRock(), dc, dc.SubFor(0), 200)
}

func BenchmarkAblationKernels(b *testing.B) {
	d := grid.Dims{NX: 64, NY: 64, NZ: 64}
	m := benchMedium(b, d)
	dt := m.StableDt(0.5)
	box := fd.FullBox(d)
	for _, v := range []fd.Variant{fd.Naive, fd.Recip, fd.Precomp, fd.Blocked, fd.Unrolled} {
		b.Run(v.String(), func(b *testing.B) {
			s := fd.NewState(d)
			s.VX.Set(32, 32, 32, 1)
			b.SetBytes(int64(d.Cells()) * 4 * 9)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fd.UpdateVelocity(s, m, dt, box, v, fd.DefaultBlocking)
				fd.UpdateStress(s, m, dt, box, v, fd.DefaultBlocking)
			}
			cellsteps := float64(d.Cells()) * float64(b.N)
			b.ReportMetric(cellsteps/b.Elapsed().Seconds()/1e6, "Mcells/s")
		})
	}
}

// --- §IV.A / §IV.C ablation: communication models on the real solver ---

func BenchmarkAblationCommModels(b *testing.B) {
	q := cvm.Homogeneous(cvm.Material{Vp: 6000, Vs: 3464, Rho: 2700})
	for _, cm := range []solver.CommModel{solver.Synchronous, solver.Asynchronous,
		solver.AsyncReduced, solver.AsyncOverlap} {
		b.Run(cm.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := solver.Run(q, solver.Options{
					Global: grid.Dims{NX: 48, NY: 24, NZ: 24},
					H:      100, Steps: 20,
					Topo: mpi.NewCart(2, 2, 1),
					Comm: cm,
					Sources: []source.SampledSource{(source.PointSource{
						GI: 24, GJ: 12, GK: 12, M0: 1e15,
						Tensor: source.Explosion, STF: source.GaussianPulse(0.05, 0.01),
					}).Sample(0.002, 100)},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Fig 11: message-passing round-trip latency of the runtime ---

func BenchmarkFig11AsyncLatency(b *testing.B) {
	w := mpi.NewWorld(2)
	b.ResetTimer()
	w.Run(func(c *mpi.Comm) {
		buf := make([]float32, 1024)
		if c.Rank() == 0 {
			for i := 0; i < b.N; i++ {
				c.Send(1, i, buf)
				c.Recv(buf, 1, 1<<30+i)
			}
		} else {
			for i := 0; i < b.N; i++ {
				c.Recv(buf, 0, i)
				c.Send(0, 1<<30+i, buf)
			}
		}
	})
}

// --- §III.E: I/O aggregation on the simulated parallel file system ---

func BenchmarkIOAggregation(b *testing.B) {
	for _, flushEvery := range []int{1, 100, 500} {
		b.Run(fmt.Sprintf("flushEvery=%d", flushEvery), func(b *testing.B) {
			// Modest FS so the latency-vs-bandwidth contrast is visible at
			// bench scale (the unit test asserts the 49%->2% collapse).
			fsys := pfs.New(pfs.Config{OSTs: 8, OSTBandwidth: 1e8, MDSLatency: 1e-3, MDSConcurrent: 4})
			var frac float64
			for i := 0; i < b.N; i++ {
				frac = output.OverheadModel(fsys, "out/v.bin", 2000, 1e-3, 1<<10, flushEvery)
			}
			b.ReportMetric(frac*100, "io-overhead-%")
		})
	}
}

// --- Halo exchange volume: the §IV.A reduced-communication claim ---

func BenchmarkMessageVolume(b *testing.B) {
	d := grid.Dims{NX: 125, NY: 125, NZ: 125}
	all := [3][2]bool{{true, true}, {true, true}, {true, true}}
	for _, cm := range []solver.CommModel{solver.Asynchronous, solver.AsyncReduced} {
		b.Run(cm.String(), func(b *testing.B) {
			var vol int
			for i := 0; i < b.N; i++ {
				vol = solver.MessageVolume(d, all, cm)
			}
			b.ReportMetric(float64(vol*4)/1e6, "MB/step")
		})
	}
}

// --- Full solver throughput (the real code on this machine) ---

func BenchmarkSolverStep(b *testing.B) {
	q := cvm.SoCal(12800, 12800, 6400, 500)
	g := grid.Dims{NX: 64, NY: 64, NZ: 32}
	b.Run("awm-full-physics", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, err := solver.Run(q, solver.Options{
				Global: g, H: 200, Steps: 10,
				Comm: solver.AsyncReduced, ABC: solver.MPMLABC, PMLWidth: 8,
				FreeSurface: true, Attenuation: true,
				Sources: []source.SampledSource{(source.PointSource{
					GI: 32, GJ: 32, GK: 16, M0: 1e15,
					Tensor: source.StrikeSlipXY, STF: source.GaussianPulse(0.1, 0.03),
				}).Sample(0.002, 200)},
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(g.Cells()*10*b.N)/b.Elapsed().Seconds()/1e6, "Mcells/s")
	})
}

// --- Execution engine ablations: pooled kernels, threaded overlap, ---
// --- zero-copy messaging (the persistent-engine PR's three layers) ---

// BenchmarkEnginePool measures the production kernels drained as j/k
// tiles by the persistent pool at 1, 2 and 4 threads.
func BenchmarkEnginePool(b *testing.B) {
	d := grid.Dims{NX: 64, NY: 64, NZ: 64}
	m := benchMedium(b, d)
	dt := m.StableDt(0.5)
	box := fd.FullBox(d)
	for _, threads := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("pool/threads=%d", threads), func(b *testing.B) {
			p := sched.NewPool(threads)
			defer p.Close()
			s := fd.NewState(d)
			s.VX.Set(32, 32, 32, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fd.UpdateVelocityTiled(s, m, dt, box, fd.Blocked, fd.DefaultBlocking, p)
				fd.UpdateStressTiled(s, m, dt, box, fd.Blocked, fd.DefaultBlocking, p)
			}
			b.ReportMetric(float64(d.Cells())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mcells/s")
		})
	}
}

// BenchmarkEngineOverlapThreads runs the full solver in the overlap model,
// serial vs pooled: with spare cores the interior update hides behind the
// exchange (§IV.C+D). On a single-core host the threaded rows only measure
// scheduling overhead — record GOMAXPROCS alongside the numbers.
func BenchmarkEngineOverlapThreads(b *testing.B) {
	q := cvm.Homogeneous(cvm.Material{Vp: 6000, Vs: 3464, Rho: 2700})
	g := grid.Dims{NX: 128, NY: 128, NZ: 128}
	for _, threads := range []int{1, 4} {
		b.Run(fmt.Sprintf("overlap/threads=%d", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := solver.Run(q, solver.Options{
					Global: g, H: 100, Steps: 2,
					Topo: mpi.NewCart(2, 1, 1),
					Comm: solver.AsyncOverlap, Threads: threads,
					Sources: []source.SampledSource{(source.PointSource{
						GI: 64, GJ: 64, GK: 64, M0: 1e15,
						Tensor: source.Explosion, STF: source.GaussianPulse(0.05, 0.01),
					}).Sample(0.002, 100)},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(g.Cells()*2*b.N)/b.Elapsed().Seconds()/1e6, "Mcells/s")
		})
	}
}

// BenchmarkEngineHaloSendMode contrasts the copying send path with the
// buffer-lending zero-copy path at halo-face message sizes. Run with
// -benchmem: the zero-copy rows must show 0 allocs/op in steady state.
func BenchmarkEngineHaloSendMode(b *testing.B) {
	const n = 2 * 64 * 64 // one ghost face of a 64^3 subgrid
	b.Run("copy", func(b *testing.B) {
		w := mpi.NewWorld(2)
		b.ResetTimer()
		w.Run(func(c *mpi.Comm) {
			buf := make([]float32, n)
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
	})
	b.Run("zero-copy", func(b *testing.B) {
		w := mpi.NewWorld(2)
		b.ResetTimer()
		w.Run(func(c *mpi.Comm) {
			if c.Rank() == 0 {
				src := make([]float32, n)
				for i := 0; i < b.N; i++ {
					out := mpi.GetBuffer(n)
					copy(out, src) // the one pack
					c.SendOwned(1, 1, out)
				}
			} else {
				for i := 0; i < b.N; i++ {
					in, _ := c.MustRecvTake(0, 1)
					mpi.PutBuffer(in)
				}
			}
		})
	})
}
