package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/core/attenuation"
	"repro/internal/core/fd"
	"repro/internal/core/solver"
	"repro/internal/grid"
	"repro/internal/perfmodel"
)

// Computed (not measured) kernel cost model: floating-point operations
// from the program's own flop constants and compulsory bytes from the
// float32 arrays each kernel streams per cell, assuming every stencil
// neighbour is reused from cache. Cache misses would raise the bytes.
const (
	// Velocity reads 6 stresses, 3 velocities and 3 buoyancies and
	// writes 3 velocities.
	velocityBytesPerCell = 4 * (12 + 3)
	// Stress plus attenuation, the unfused pair the blocked default runs:
	// 27 streams in the elastic pass and 29 in the memory-variable pass
	// (the BENCH_4 bandwidth model).
	stressAttenBytesPerCell = 4 * (27 + 29)
	// An M-PML cell additionally reads and writes its three directional
	// splits of every component it updates: 3x3 velocity splits and 3x6
	// stress splits, each read and written once.
	mpmlExtraBytesPerCell = 4 * 2 * (9 + 18)
	// The split recursion d*s + g*t costs 3 flops per split value.
	mpmlExtraFlopsPerCell = 3 * (9 + 18)
)

// Arrays per rank: 9 wavefield components, 14 medium arrays and, with
// attenuation, 6 memory variables plus 2 modulus deficits. M-PML zones
// hold 27 split arrays over their own cells.
const (
	stateArrays  = 9
	mediumArrays = 14
	attenArrays  = 8
	pmlArrays    = 27
)

type kernelModel struct {
	name         string
	flops, bytes float64
}

func computedKernels() []kernelModel {
	st := float64(fd.FlopsStressPerCell + attenuation.FlopsPerCell)
	return []kernelModel{
		{"velocity", fd.FlopsVelocityPerCell, velocityBytesPerCell},
		{"stress+attenuation", st, stressAttenBytesPerCell},
		{"m-pml cell (velocity+stress)", fd.FlopsVelocityPerCell + fd.FlopsStressPerCell + mpmlExtraFlopsPerCell,
			velocityBytesPerCell + 4*27 + mpmlExtraBytesPerCell},
	}
}

// footprintBytes is the solver's array footprint summed over ranks for
// opt (ghost-padded subgrids; PML splits over the absorbing shell).
func footprintBytes(opt solver.Options) float64 {
	px, py, pz := max(opt.Topo.PX, 1), max(opt.Topo.PY, 1), max(opt.Topo.PZ, 1)
	g := opt.Global
	padded := float64((g.NX/px+2*grid.Ghost)*(g.NY/py+2*grid.Ghost)*(g.NZ/pz+2*grid.Ghost)) * float64(px*py*pz)
	arrays := float64(stateArrays + mediumArrays)
	if opt.Attenuation {
		arrays += attenArrays
	}
	b := arrays * padded * 4
	if opt.ABC == solver.MPMLABC {
		b += pmlArrays * float64(absorbingShellCells(g, boundaryWidth(opt), opt.FreeSurface)) * 4
	}
	return b
}

// lastLevelCache reads the size of the highest-level CPU cache, or 0.
func lastLevelCache() float64 {
	best, bestLevel := 0.0, 0
	for i := 0; i < 8; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		lv, err1 := os.ReadFile(dir + "level")
		sz, err2 := os.ReadFile(dir + "size")
		if err1 != nil || err2 != nil {
			break
		}
		level, _ := strconv.Atoi(strings.TrimSpace(string(lv)))
		s := strings.TrimSpace(string(sz))
		mult := 1.0
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		v, _ := strconv.ParseFloat(s, 64)
		if level >= bestLevel {
			best, bestLevel = v*mult, level
		}
	}
	return best
}

// printModel prints the computed kernel model and the workload's array
// footprint against the last-level cache.
func printModel(opt solver.Options) {
	fmt.Printf("computed per cell-step (perfmodel.UsefulFlopsPerCell = %.0f):\n", perfmodel.UsefulFlopsPerCell)
	for _, k := range computedKernels() {
		fmt.Printf("  %-30s %5.0f flop %5.0f B  %.2f flop/B (computed)\n", k.name, k.flops, k.bytes, k.flops/k.bytes)
	}
	llc := lastLevelCache()
	fp := footprintBytes(opt)
	fmt.Printf("array footprint %.1f MB vs last-level cache %.1f MB (%.2fx)\n", fp/1e6, llc/1e6, fp/max(llc, 1))
}
