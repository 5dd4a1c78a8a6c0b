package cat

import (
	"math"
	"testing"

	"github.com/perfmetrics/eventlens/internal/core"
	"github.com/perfmetrics/eventlens/internal/cpusim"
	"github.com/perfmetrics/eventlens/internal/machine"
)

// The point of the whole methodology: metric definitions derived from the
// CAT kernels must measure correctly on workloads they never saw. These
// tests run an unrelated "application" through the simulator, measure only
// the raw events a derived definition references, apply the combination, and
// compare against the simulator's ground truth.

// userApplication is a made-up mixed workload: a blocked matmul-ish loop nest
// with scalar cleanup, AVX512 DP FMA inner kernel, AVX256 SP activity and
// integer bookkeeping.
func userApplication() *cpusim.Kernel {
	return &cpusim.Kernel{
		Name: "user-app",
		Blocks: []cpusim.Block{
			{ // AVX512 DP FMA inner kernel
				Body: []cpusim.Instr{
					{Op: cpusim.OpFPFMA, Prec: cpusim.DP, Width: cpusim.W512},
					{Op: cpusim.OpFPFMA, Prec: cpusim.DP, Width: cpusim.W512},
					{Op: cpusim.OpLoad},
					{Op: cpusim.OpIntAdd},
				},
				Trips: 377,
			},
			{ // AVX256 SP stream with multiplies
				Body: []cpusim.Instr{
					{Op: cpusim.OpFPMul, Prec: cpusim.SP, Width: cpusim.W256},
					{Op: cpusim.OpFPAdd, Prec: cpusim.SP, Width: cpusim.W256},
					{Op: cpusim.OpLoad},
				},
				Trips: 211,
			},
			{ // scalar DP cleanup
				Body: []cpusim.Instr{
					{Op: cpusim.OpFPAdd, Prec: cpusim.DP, Width: cpusim.Scalar},
					{Op: cpusim.OpFPDiv, Prec: cpusim.DP, Width: cpusim.Scalar},
				},
				Trips: 89,
			},
		},
	}
}

// groundTruthOps returns the application's true DP and SP operation counts
// from the simulator.
func groundTruthOps(t *testing.T) (dpOps, spOps float64, stats machine.Stats) {
	t.Helper()
	counts := cpusim.DefaultCore().Run(userApplication())
	// DP ops: AVX512 FMA = 16 ops each (8 lanes x 2), scalar add/div 1 each.
	dp := 0.0
	sp := 0.0
	for class, n := range counts.FP {
		lanes := class.Width.Lanes(class.Prec)
		ops := float64(lanes)
		if class.FMA {
			ops *= 2
		}
		if class.Prec == cpusim.DP {
			dp += ops * float64(n)
		} else {
			sp += ops * float64(n)
		}
	}
	return dp, sp, CPUStats(counts)
}

func TestDerivedDPOpsMetricMeasuresNewWorkload(t *testing.T) {
	// 1. Derive the DP Ops definition from the CAT benchmark.
	set, err := Collect("cpu-flops", NewFlopsCPU(), sprPlatform(t), DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	basis, _ := NewFlopsCPU().Basis()
	pipe := &core.Pipeline{Basis: basis, Config: core.DefaultConfig()}
	res, err := pipe.Analyze(set)
	if err != nil {
		t.Fatal(err)
	}
	var dpDef, spDef *core.MetricDefinition
	for _, sig := range core.CPUFlopsSignatures() {
		def, err := res.DefineMetric(sig)
		if err != nil {
			t.Fatal(err)
		}
		switch sig.Name {
		case "DP Ops.":
			dpDef = def
		case "SP Ops.":
			spDef = def
		}
	}

	// 2. Run the unseen application and measure ONLY the referenced events.
	wantDP, wantSP, stats := groundTruthOps(t)
	platform := sprPlatform(t)
	var names []string
	for _, term := range dpDef.Rounded(0.05).NonZeroTerms() {
		names = append(names, term.Event)
	}
	for _, term := range spDef.Rounded(0.05).NonZeroTerms() {
		names = append(names, term.Event)
	}
	vectors, err := platform.Measure([]machine.Stats{stats}, names, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	single := map[string][]float64{}
	for name, v := range vectors {
		single[name] = v
	}

	// 3. Apply the combinations and compare with ground truth.
	gotDP, err := dpDef.Rounded(0.05).Combine(single)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gotDP[0]-wantDP) > 1e-9*wantDP {
		t.Fatalf("derived DP Ops = %v, simulator ground truth = %v", gotDP[0], wantDP)
	}
	gotSP, err := spDef.Rounded(0.05).Combine(single)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gotSP[0]-wantSP) > 1e-9*wantSP {
		t.Fatalf("derived SP Ops = %v, simulator ground truth = %v", gotSP[0], wantSP)
	}
}

func TestDerivedMetricsAcrossWorkloadLibrary(t *testing.T) {
	// Same validation across the whole workload library: triad, daxpy,
	// stencil, scalar dot and a mixed-precision stress case.
	set, err := Collect("cpu-flops", NewFlopsCPU(), sprPlatform(t), DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	basis, _ := NewFlopsCPU().Basis()
	pipe := &core.Pipeline{Basis: basis, Config: core.DefaultConfig()}
	res, err := pipe.Analyze(set)
	if err != nil {
		t.Fatal(err)
	}
	var dpDef, spDef *core.MetricDefinition
	for _, sig := range core.CPUFlopsSignatures() {
		def, err := res.DefineMetric(sig)
		if err != nil {
			t.Fatal(err)
		}
		switch sig.Name {
		case "DP Ops.":
			dpDef = def.Rounded(0.05)
		case "SP Ops.":
			spDef = def.Rounded(0.05)
		}
	}
	platform := sprPlatform(t)
	workloads := []*cpusim.Kernel{
		cpusim.TriadKernel(500),
		cpusim.DaxpyKernel(300),
		cpusim.StencilKernel(200),
		cpusim.DotKernel(150),
		cpusim.MixedPrecisionKernel(120),
	}
	for _, k := range workloads {
		counts := cpusim.DefaultCore().Run(k)
		wantDP, wantSP := cpusim.TrueOps(counts)
		stats := CPUStats(counts)
		var names []string
		for _, term := range dpDef.NonZeroTerms() {
			names = append(names, term.Event)
		}
		for _, term := range spDef.NonZeroTerms() {
			names = append(names, term.Event)
		}
		vectors, err := platform.Measure([]machine.Stats{stats}, names, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		gotDP, err := dpDef.Combine(vectors)
		if err != nil {
			t.Fatal(err)
		}
		gotSP, err := spDef.Combine(vectors)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(gotDP[0]-wantDP) > 1e-9*math.Max(1, wantDP) {
			t.Errorf("%s: derived DP ops %v, ground truth %v", k.Name, gotDP[0], wantDP)
		}
		if math.Abs(gotSP[0]-wantSP) > 1e-9*math.Max(1, wantSP) {
			t.Errorf("%s: derived SP ops %v, ground truth %v", k.Name, gotSP[0], wantSP)
		}
	}
}

func TestDerivedBranchMetricMeasuresNewWorkload(t *testing.T) {
	// Derive branch metrics from CAT, then verify "Unconditional Branches"
	// (= ALL_BRANCHES - COND) on hand-written stats.
	set, err := Collect("branch", NewBranch(), sprPlatform(t), DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	basis, _ := NewBranch().Basis()
	pipe := &core.Pipeline{Basis: basis, Config: core.DefaultConfig()}
	res, err := pipe.Analyze(set)
	if err != nil {
		t.Fatal(err)
	}
	var def *core.MetricDefinition
	for _, sig := range core.BranchSignatures() {
		if sig.Name == "Unconditional Branches." {
			def, err = res.DefineMetric(sig)
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	appStats := machine.Stats{
		machine.KeyBrCR:     1234,
		machine.KeyBrTaken:  800,
		machine.KeyBrDirect: 55,
		machine.KeyBrMisp:   31,
	}
	platform := sprPlatform(t)
	var names []string
	for _, term := range def.Rounded(0.05).NonZeroTerms() {
		names = append(names, term.Event)
	}
	vectors, err := platform.Measure([]machine.Stats{appStats}, names, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := def.Rounded(0.05).Combine(vectors)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-55) > 1e-9 {
		t.Fatalf("derived unconditional branches = %v want 55", got[0])
	}
}
