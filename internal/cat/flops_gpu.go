package cat

import (
	"fmt"

	"github.com/perfmetrics/eventlens/internal/core"
	"github.com/perfmetrics/eventlens/internal/gpusim"
	"github.com/perfmetrics/eventlens/internal/machine"
	"github.com/perfmetrics/eventlens/internal/mat"
)

// FlopsGPU is the CAT GPU-FLOPs benchmark: 15 kernels (add, sub, mul,
// sqrt/transcendental, FMA in half, single and double precision), three loops
// each — 45 benchmark points, measured per wavefront.
type FlopsGPU struct {
	Device *gpusim.Device
	// Waves is the dispatch width; counts are normalized per wave.
	Waves int
}

// NewFlopsGPU returns the benchmark on a default device.
func NewFlopsGPU() *FlopsGPU {
	return &FlopsGPU{Device: gpusim.DefaultDevice(), Waves: 220}
}

// PointNames returns the 45 point labels.
func (b *FlopsGPU) PointNames() []string {
	var names []string
	for _, spec := range gpusim.KernelSpace() {
		for loop := 1; loop <= 3; loop++ {
			names = append(names, fmt.Sprintf("%s/L%d", spec.Symbol(), loop))
		}
	}
	return names
}

// gpuOpStat maps simulator op types to ground-truth stat key fragments.
func gpuOpStat(op gpusim.OpType) string {
	switch op {
	case gpusim.OpAdd:
		return "add"
	case gpusim.OpSub:
		return "sub"
	case gpusim.OpMul:
		return "mul"
	case gpusim.OpTrans:
		return "trans"
	default:
		return "fma"
	}
}

func gpuPrecStat(p gpusim.Prec) string {
	return fmt.Sprintf("f%d", p.Bits())
}

// GroundTruth dispatches every kernel loop and returns per-point,
// per-wavefront statistics, which every thread measures.
func (b *FlopsGPU) GroundTruth(RunConfig) ([][]machine.Stats, error) {
	var points []machine.Stats
	for _, spec := range gpusim.KernelSpace() {
		kernel := gpusim.BuildKernel(spec)
		for _, block := range kernel.Blocks {
			counts, err := b.Device.Dispatch(&gpusim.Kernel{
				Name:   kernel.Name,
				Blocks: []gpusim.Block{block},
			}, b.Waves)
			if err != nil {
				return nil, err
			}
			w := float64(counts.Waves)
			s := machine.Stats{
				machine.KeyGPUValuAll: float64(counts.VALUAll) / w,
				machine.KeyGPUSalu:    float64(counts.SALU) / w,
				machine.KeyGPUWaves:   1,
				machine.KeyGPUCycles:  float64(counts.Cycles),
				machine.KeyGPUFlops:   float64(counts.FLOPLane) / w,
			}
			for class, n := range counts.VALU {
				s[machine.GPUValuKey(gpuOpStat(class.Op), gpuPrecStat(class.Prec))] = float64(n) / w
			}
			points = append(points, s)
		}
	}
	return [][]machine.Stats{points}, nil
}

// Basis returns the 45-point x 15-dimension GPU FLOPs expectation basis.
func (b *FlopsGPU) Basis() (*core.Basis, error) {
	specs := gpusim.KernelSpace()
	exp := gpusim.ExpectedInstrs()
	e := mat.NewDense(len(specs)*3, len(specs))
	for k := range specs {
		for loop := 0; loop < 3; loop++ {
			e.Set(k*3+loop, k, exp[loop])
		}
	}
	return core.NewBasis(core.GPUFlopsBasisSymbols(), b.PointNames(), e)
}
