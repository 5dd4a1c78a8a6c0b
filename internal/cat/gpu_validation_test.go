package cat

import (
	"math"
	"testing"

	"github.com/perfmetrics/eventlens/internal/core"
	"github.com/perfmetrics/eventlens/internal/gpusim"
	"github.com/perfmetrics/eventlens/internal/machine"
)

// GPU counterpart of the CPU workload validation: derive the All-DP-Ops
// metric from the CAT GPU benchmark, then measure an unseen GPU kernel and
// compare against the simulator's lane-level ground truth.

func TestDerivedGPUMetricMeasuresNewKernel(t *testing.T) {
	// 1. Derive GPU metrics from CAT.
	set, err := Collect("gpu-flops", NewFlopsGPU(), mi250xPlatform(t), DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	basis, err := NewFlopsGPU().Basis()
	if err != nil {
		t.Fatal(err)
	}
	pipe := &core.Pipeline{Basis: basis, Config: core.DefaultConfig()}
	res, err := pipe.Analyze(set)
	if err != nil {
		t.Fatal(err)
	}
	var dpDef *core.MetricDefinition
	for _, sig := range core.GPUFlopsSignatures() {
		if sig.Name == "All DP Ops." {
			dpDef, err = res.DefineMetric(sig)
			if err != nil {
				t.Fatal(err)
			}
			dpDef = dpDef.Rounded(0.05)
		}
	}

	// 2. An unseen mixed GPU kernel: DP FMA + DP mul + some F32 noise.
	kernel := &gpusim.Kernel{
		Name: "user-gpu-app",
		Blocks: []gpusim.Block{
			{Body: []gpusim.Instr{
				{Op: gpusim.OpFMA, Prec: gpusim.F64},
				{Op: gpusim.OpMul, Prec: gpusim.F64},
				{Op: gpusim.OpAdd, Prec: gpusim.F32},
			}, Trips: 321},
			{Body: []gpusim.Instr{
				{Op: gpusim.OpTrans, Prec: gpusim.F64},
			}, Trips: 77},
		},
	}
	device := gpusim.DefaultDevice()
	counts, err := device.Dispatch(kernel, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth DP ops per wave (wavefront-instruction granularity, the
	// counters' unit): FMA counts 2, mul and sqrt 1 each.
	wantDP := float64(321*(2+1) + 77)

	// 3. Measure only the referenced events and apply the combination.
	w := float64(counts.Waves)
	stats := machine.Stats{}
	for class, n := range counts.VALU {
		stats[machine.GPUValuKey(gpuOpStat(class.Op), gpuPrecStat(class.Prec))] = float64(n) / w
	}
	var names []string
	for _, term := range dpDef.NonZeroTerms() {
		names = append(names, term.Event)
	}
	vectors, err := mi250xPlatform(t).Measure([]machine.Stats{stats}, names, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dpDef.Combine(vectors)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-wantDP) > 1e-9*wantDP {
		t.Fatalf("derived All DP Ops = %v, ground truth = %v", got[0], wantDP)
	}
}
