package cat

import (
	"fmt"
	"strings"

	"github.com/perfmetrics/eventlens/internal/core"
	"github.com/perfmetrics/eventlens/internal/cpusim"
	"github.com/perfmetrics/eventlens/internal/machine"
	"github.com/perfmetrics/eventlens/internal/mat"
)

// FlopsCPU is the CAT CPU-FLOPs benchmark: the 16 kernels of
// Space = {scalar,128,256,512} x {FMA, non-FMA} x {SP, DP}, each with three
// loops, giving 48 benchmark points.
type FlopsCPU struct {
	Core *cpusim.Core
}

// NewFlopsCPU returns the benchmark on a default core.
func NewFlopsCPU() *FlopsCPU {
	return &FlopsCPU{Core: cpusim.DefaultCore()}
}

// PointNames returns the 48 point labels, kernel-major.
func (b *FlopsCPU) PointNames() []string {
	var names []string
	for _, spec := range cpusim.FlopsKernelSpace() {
		for loop := 1; loop <= 3; loop++ {
			names = append(names, fmt.Sprintf("%s/L%d", spec.Name(), loop))
		}
	}
	return names
}

// GroundTruth executes every kernel loop on the simulated core and returns
// per-point ground-truth statistics, which every thread measures.
func (b *FlopsCPU) GroundTruth(RunConfig) ([][]machine.Stats, error) {
	var points []machine.Stats
	for _, spec := range cpusim.FlopsKernelSpace() {
		kernel := cpusim.BuildFlopsKernel(spec)
		for _, block := range kernel.Blocks {
			counts := b.Core.Run(&cpusim.Kernel{Name: kernel.Name, Blocks: []cpusim.Block{block}})
			points = append(points, CPUStats(counts))
		}
	}
	return [][]machine.Stats{points}, nil
}

// CPUStats flattens simulator counters into ground-truth stat keys.
func CPUStats(c *cpusim.Counts) machine.Stats {
	s := machine.Stats{
		machine.KeyInstr:    float64(c.Instructions),
		machine.KeyCycles:   float64(c.Cycles),
		machine.KeyIntOps:   float64(c.IntOps),
		machine.KeyLoads:    float64(c.Loads),
		machine.KeyStores:   float64(c.Stores),
		machine.KeyCPUFlops: float64(c.FLOPs),
		machine.KeyBrCR:     float64(c.Branches),
		machine.KeyBrTaken:  float64(c.TakenBr),
		// The loop exit is mispredicted once per block; speculation then
		// re-executes it, which is all the executed-vs-retired difference a
		// plain counted loop has.
		machine.KeyBrMisp: 1,
		machine.KeyBrCE:   float64(c.Branches) + 1,
	}
	for class, n := range c.FP {
		s[machine.FPKey(strings.ToLower(class.Prec.String()), class.Width.String(), class.FMA)] = float64(n)
	}
	return s
}

// Basis returns the 48-point x 16-dimension CPU FLOPs expectation basis: each
// ideal event reads the analytic instruction counts on its own kernel's
// loops and zero elsewhere.
func (b *FlopsCPU) Basis() (*core.Basis, error) {
	specs := cpusim.FlopsKernelSpace()
	e := mat.NewDense(len(specs)*3, len(specs))
	for k, spec := range specs {
		exp := cpusim.ExpectedFPInstrs(spec)
		for loop := 0; loop < 3; loop++ {
			e.Set(k*3+loop, k, exp[loop])
		}
	}
	return core.NewBasis(core.CPUFlopsBasisSymbols(), b.PointNames(), e)
}
