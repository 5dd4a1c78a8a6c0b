package cat

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/perfmetrics/eventlens/internal/cachesim"
	"github.com/perfmetrics/eventlens/internal/core"
	"github.com/perfmetrics/eventlens/internal/machine"
	"github.com/perfmetrics/eventlens/internal/par"
)

func sprPlatform(t *testing.T) *machine.Platform {
	t.Helper()
	p, err := machine.BuiltinPlatform("spr-sim")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mi250xPlatform(t *testing.T) *machine.Platform {
	t.Helper()
	p, err := machine.BuiltinPlatform("mi250x-sim")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// testDCache returns a down-scaled data-cache benchmark that keeps unit
// tests fast while preserving the region structure.
func testDCache() *DCache {
	return &DCache{
		Levels: []cachesim.LevelConfig{
			{Name: "L1", Size: 1 << 10, Ways: 2, LineSize: 64},
			{Name: "L2", Size: 4 << 10, Ways: 4, LineSize: 64},
			{Name: "L3", Size: 16 << 10, Ways: 4, LineSize: 64},
		},
		Strides: []int{64, 128},
		Passes:  2,
		Seed:    3,
	}
}

func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	m := map[string]bool{}
	for _, s := range a {
		m[s] = true
	}
	for _, s := range b {
		if !m[s] {
			return false
		}
	}
	return true
}

func TestFlopsCPUBasisMatchesGroundTruth(t *testing.T) {
	b := NewFlopsCPU()
	basis, err := b.Basis()
	if err != nil {
		t.Fatal(err)
	}
	if basis.Dim() != 16 || basis.Points() != 48 {
		t.Fatalf("basis dims %d x %d", basis.Points(), basis.Dim())
	}
	if err := basis.CheckFullRank(); err != nil {
		t.Fatal(err)
	}
	// The ground-truth FP stats of each point must match the basis entries
	// exactly: the simulator realizes the analytic expectations.
	truth, err := b.GroundTruth(DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(truth) != 1 {
		t.Fatalf("ground truth has %d per-thread slices, want 1 shared by every thread", len(truth))
	}
	points := truth[0]
	symbols := core.CPUFlopsBasisSymbols()
	keys := []string{
		machine.FPKey("sp", "scalar", false), machine.FPKey("sp", "128", false),
		machine.FPKey("sp", "256", false), machine.FPKey("sp", "512", false),
		machine.FPKey("dp", "scalar", false), machine.FPKey("dp", "128", false),
		machine.FPKey("dp", "256", false), machine.FPKey("dp", "512", false),
		machine.FPKey("sp", "scalar", true), machine.FPKey("sp", "128", true),
		machine.FPKey("sp", "256", true), machine.FPKey("sp", "512", true),
		machine.FPKey("dp", "scalar", true), machine.FPKey("dp", "128", true),
		machine.FPKey("dp", "256", true), machine.FPKey("dp", "512", true),
	}
	for pi, stats := range points {
		for ki, key := range keys {
			if got, want := stats[key], basis.E.At(pi, ki); got != want {
				t.Fatalf("point %d, ideal %s: ground truth %v, basis %v", pi, symbols[ki], got, want)
			}
		}
	}
}

func TestQRCPSelectsCPUFlopsEvents(t *testing.T) {
	// Section V-A: with alpha = 5e-4 the specialized QRCP must select
	// exactly the eight FP_ARITH_INST_RETIRED events.
	set, err := Collect("cpu-flops", NewFlopsCPU(), sprPlatform(t), DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	basis, err := NewFlopsCPU().Basis()
	if err != nil {
		t.Fatal(err)
	}
	pipe := &core.Pipeline{Basis: basis, Config: core.DefaultConfig()}
	res, err := pipe.Analyze(set)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"FP_ARITH_INST_RETIRED:SCALAR_SINGLE",
		"FP_ARITH_INST_RETIRED:128B_PACKED_SINGLE",
		"FP_ARITH_INST_RETIRED:256B_PACKED_SINGLE",
		"FP_ARITH_INST_RETIRED:512B_PACKED_SINGLE",
		"FP_ARITH_INST_RETIRED:SCALAR_DOUBLE",
		"FP_ARITH_INST_RETIRED:128B_PACKED_DOUBLE",
		"FP_ARITH_INST_RETIRED:256B_PACKED_DOUBLE",
		"FP_ARITH_INST_RETIRED:512B_PACKED_DOUBLE",
	}
	if !sameSet(res.SelectedEvents, want) {
		t.Fatalf("selected = %v\nwant the 8 FP_ARITH events", res.SelectedEvents)
	}
}

func TestTableVCPUFlopsMetrics(t *testing.T) {
	// Table V: instruction and operation metrics compose with tiny error;
	// FMA instruction metrics come out with 0.8 coefficients and backward
	// error ~2.36e-1 because no FMA-only event exists.
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
	defs, err := res.DefineMetrics(core.CPUFlopsSignatures())
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range defs {
		switch def.Metric {
		case "SP FMA Instrs.", "DP FMA Instrs.":
			if math.Abs(def.BackwardError-0.236) > 0.002 {
				t.Errorf("%s error = %v want ~0.236", def.Metric, def.BackwardError)
			}
			for _, term := range def.Terms {
				if term.Coeff > 1e-6 && math.Abs(term.Coeff-0.8) > 1e-6 {
					t.Errorf("%s: coefficient %v on %s, want 0.8", def.Metric, term.Coeff, term.Event)
				}
			}
		default:
			if def.BackwardError > 1e-10 {
				t.Errorf("%s error = %v want ~0", def.Metric, def.BackwardError)
			}
		}
	}
	// Spot-check DP Ops coefficients: (1,2,4,8) on the DOUBLE events.
	for _, def := range defs {
		if def.Metric != "DP Ops." {
			continue
		}
		want := map[string]float64{
			"FP_ARITH_INST_RETIRED:SCALAR_DOUBLE":      1,
			"FP_ARITH_INST_RETIRED:128B_PACKED_DOUBLE": 2,
			"FP_ARITH_INST_RETIRED:256B_PACKED_DOUBLE": 4,
			"FP_ARITH_INST_RETIRED:512B_PACKED_DOUBLE": 8,
		}
		for _, term := range def.Terms {
			if w, ok := want[term.Event]; ok && math.Abs(term.Coeff-w) > 1e-8 {
				t.Errorf("DP Ops: %s = %v want %v", term.Event, term.Coeff, w)
			}
		}
	}
}

func TestQRCPSelectsBranchEvents(t *testing.T) {
	// Section V-C: the four branch events of the paper.
	set, err := Collect("branch", NewBranch(), sprPlatform(t), DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	basis, err := NewBranch().Basis()
	if err != nil {
		t.Fatal(err)
	}
	pipe := &core.Pipeline{Basis: basis, Config: core.DefaultConfig()}
	res, err := pipe.Analyze(set)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"BR_MISP_RETIRED",
		"BR_INST_RETIRED:COND",
		"BR_INST_RETIRED:COND_TAKEN",
		"BR_INST_RETIRED:ALL_BRANCHES",
	}
	if !sameSet(res.SelectedEvents, want) {
		t.Fatalf("selected = %v\nwant %v", res.SelectedEvents, want)
	}
}

func TestTableVIIBranchMetrics(t *testing.T) {
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
	defs, err := res.DefineMetrics(core.BranchSignatures())
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range defs {
		if def.Metric == "Conditional Branches Executed." {
			// Table VII: not composable, error 1.0 and ~zero coefficients.
			if math.Abs(def.BackwardError-1) > 1e-9 {
				t.Errorf("executed error = %v want 1.0", def.BackwardError)
			}
			continue
		}
		if def.BackwardError > 1e-10 {
			t.Errorf("%s error = %v want ~0", def.Metric, def.BackwardError)
		}
	}
}

func TestQRCPSelectsGPUFlopsEvents(t *testing.T) {
	// Section V-B: the 12 SQ_INSTS_VALU_{ADD,MUL,TRANS,FMA}_F{16,32,64}
	// events on device 0.
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
	if len(res.SelectedEvents) != 12 {
		t.Fatalf("selected %d events, want 12: %v", len(res.SelectedEvents), res.SelectedEvents)
	}
	for _, name := range res.SelectedEvents {
		if !strings.HasPrefix(name, "rocm:::SQ_INSTS_VALU_") || !strings.HasSuffix(name, ":device=0") {
			t.Fatalf("unexpected selection %q", name)
		}
	}
}

func TestTableVIGPUFlopsMetrics(t *testing.T) {
	set, err := Collect("gpu-flops", NewFlopsGPU(), mi250xPlatform(t), DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	basis, _ := NewFlopsGPU().Basis()
	pipe := &core.Pipeline{Basis: basis, Config: core.DefaultConfig()}
	res, err := pipe.Analyze(set)
	if err != nil {
		t.Fatal(err)
	}
	defs, err := res.DefineMetrics(core.GPUFlopsSignatures())
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range defs {
		switch def.Metric {
		case "HP Add Ops.", "HP Sub Ops.":
			// Table VI: 0.5 x ADD_F16, error ~4.14e-1.
			if math.Abs(def.BackwardError-0.414) > 0.002 {
				t.Errorf("%s error = %v want ~0.414", def.Metric, def.BackwardError)
			}
		default:
			if def.BackwardError > 1e-10 {
				t.Errorf("%s error = %v want ~0", def.Metric, def.BackwardError)
			}
		}
	}
}

func TestQRCPSelectsCacheEvents(t *testing.T) {
	// Section V-D: with alpha = 5e-2, the four cache events of the paper.
	bench := testDCache()
	set, err := Collect("dcache", bench, sprPlatform(t), RunConfig{Reps: 5, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	basis, err := bench.Basis()
	if err != nil {
		t.Fatal(err)
	}
	pipe := &core.Pipeline{Basis: basis, Config: core.CacheConfig()}
	res, err := pipe.Analyze(set)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"MEM_LOAD_RETIRED:L3_HIT",
		"L2_RQSTS:DEMAND_DATA_RD_HIT",
		"MEM_LOAD_RETIRED:L1_MISS",
		"MEM_LOAD_RETIRED:L1_HIT",
	}
	if !sameSet(res.SelectedEvents, want) {
		t.Fatalf("selected = %v\nwant %v", res.SelectedEvents, want)
	}
}

func TestTableVIIICacheMetrics(t *testing.T) {
	bench := testDCache()
	set, err := Collect("dcache", bench, sprPlatform(t), RunConfig{Reps: 5, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	basis, _ := bench.Basis()
	pipe := &core.Pipeline{Basis: basis, Config: core.CacheConfig()}
	res, err := pipe.Analyze(set)
	if err != nil {
		t.Fatal(err)
	}
	defs, err := res.DefineMetrics(core.CacheSignatures())
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range defs {
		// Noisy coefficients, but small error (Table VIII).
		if def.BackwardError > 1e-2 {
			t.Errorf("%s error = %v", def.Metric, def.BackwardError)
		}
		// Rounding the coefficients recovers an exact 0/±1 combination.
		rounded := def.Rounded(0.05)
		for _, term := range rounded.Terms {
			if term.Coeff != math.Round(term.Coeff) {
				t.Errorf("%s: coefficient %v on %s did not round to an integer",
					def.Metric, term.Coeff, term.Event)
			}
		}
	}
}

func TestCacheCombinationTracksSignature(t *testing.T) {
	// Figure 3: the rounded raw-event combination, evaluated in point space,
	// matches the expanded signature across the sweep.
	bench := testDCache()
	set, err := Collect("dcache", bench, sprPlatform(t), RunConfig{Reps: 5, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	basis, _ := bench.Basis()
	pipe := &core.Pipeline{Basis: basis, Config: core.CacheConfig()}
	res, err := pipe.Analyze(set)
	if err != nil {
		t.Fatal(err)
	}
	for _, sig := range core.CacheSignatures() {
		def, err := res.DefineMetric(sig)
		if err != nil {
			t.Fatal(err)
		}
		rounded := def.Rounded(0.05)
		combo, err := rounded.Combine(res.Noise.Kept)
		if err != nil {
			t.Fatal(err)
		}
		want, err := basis.Expand(sig.Coeffs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range combo {
			if math.Abs(combo[i]-want[i]) > 0.05 {
				t.Errorf("%s: point %d combo %v vs signature %v", sig.Name, i, combo[i], want[i])
			}
		}
	}
}

func TestBranchGroundTruthMatchesEq3(t *testing.T) {
	truth, err := NewBranch().GroundTruth(DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	basis, _ := NewBranch().Basis()
	keys := []string{machine.KeyBrCE, machine.KeyBrCR, machine.KeyBrTaken, machine.KeyBrDirect, machine.KeyBrMisp}
	for i, stats := range truth[0] {
		for j, key := range keys {
			if got, want := stats[key], basis.E.At(i, j); got != want {
				t.Fatalf("kernel %d %s: ground truth %v, Eq3 %v", i, key, got, want)
			}
		}
	}
}

func TestDCacheBasisRegions(t *testing.T) {
	bench := testDCache()
	basis, err := bench.Basis()
	if err != nil {
		t.Fatal(err)
	}
	if err := basis.CheckFullRank(); err != nil {
		t.Fatal(err)
	}
	pts := bench.Points()
	for i, p := range pts {
		rowSum := 0.0
		for j := 0; j < 4; j++ {
			rowSum += basis.E.At(i, j)
		}
		switch p.Region {
		case cachesim.RegionL1, cachesim.RegionMem:
			if rowSum != 1 {
				t.Fatalf("point %s row sum %v want 1", p.Name(), rowSum)
			}
		default:
			if rowSum != 2 { // L1DM plus the level hit
				t.Fatalf("point %s row sum %v want 2", p.Name(), rowSum)
			}
		}
	}
}

func TestRunConfigValidate(t *testing.T) {
	if err := (RunConfig{Reps: 0, Threads: 1}).Validate(); err == nil {
		t.Fatalf("zero reps should fail")
	}
	if err := (RunConfig{Reps: 1, Threads: 0}).Validate(); err == nil {
		t.Fatalf("zero threads should fail")
	}
	if err := DefaultRunConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	// The caps admit every committed configuration and their own edges, and
	// reject the first value past each — including a reps × threads product
	// that overflows int.
	for _, ok := range []RunConfig{{Reps: 9, Threads: 4}, {Reps: MaxSamples, Threads: 1}, {Reps: MaxSamples / MaxThreads, Threads: MaxThreads}} {
		if err := ok.Validate(); err != nil {
			t.Errorf("%+v: %v", ok, err)
		}
	}
	for _, bad := range []RunConfig{{Reps: 1, Threads: MaxThreads + 1}, {Reps: MaxSamples + 1, Threads: 1},
		{Reps: MaxSamples/4 + 1, Threads: 4}, {Reps: 1 << 62, Threads: 4}} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%+v accepted", bad)
		}
	}
}

func TestNoiseSplitMatchesFigure2(t *testing.T) {
	// Figure 2a/2b: a cluster of zero-variability events separated from a
	// noisy tail by many decades; tau anywhere in 1e-4..1e-15 divides them.
	set, err := Collect("branch", NewBranch(), sprPlatform(t), DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	report := core.FilterNoise(set, 1e-10)
	sorted := report.SortedVariabilities()
	var zeroCount int
	for _, v := range sorted {
		if v.MaxRNMSE == 0 {
			zeroCount++
		} else if v.MaxRNMSE < 1e-10 {
			t.Fatalf("event %s sits inside the forbidden gap: %v", v.Event, v.MaxRNMSE)
		}
	}
	if zeroCount < 5 {
		t.Fatalf("zero-noise cluster too small: %d", zeroCount)
	}
	if zeroCount == len(sorted) {
		t.Fatalf("no noisy tail present")
	}
}

// TestDriversSafeForConcurrentUse: a benchmark's driver is shared by
// concurrent collections (the composability matrix runs a benchmark's
// platform pairs at once). Collections racing through one fresh driver must
// each return the set a separate driver collects serially.
func TestDriversSafeForConcurrentUse(t *testing.T) {
	cfg := RunConfig{Reps: 2, Threads: 2, Workers: 1}
	cases := []struct {
		bench     string
		newDriver func() Driver
		platform  *machine.Platform
	}{
		{"cpu-flops", func() Driver { return NewFlopsCPU() }, sprPlatform(t)},
		{"gpu-flops", func() Driver { return NewFlopsGPU() }, mi250xPlatform(t)},
		{"branch", func() Driver { return NewBranch() }, sprPlatform(t)},
		{"dcache", func() Driver { return testDCache() }, sprPlatform(t)},
	}
	for _, c := range cases {
		want, err := Collect(c.bench, c.newDriver(), c.platform, cfg)
		if err != nil {
			t.Fatal(err)
		}
		shared := c.newDriver()
		sets := make([]*core.MeasurementSet, 4)
		err = par.ForErr(len(sets), len(sets), func(i int) error {
			set, err := Collect(c.bench, shared, c.platform, cfg)
			sets[i] = set
			return err
		})
		if err != nil {
			t.Fatalf("%s: %v", c.bench, err)
		}
		for i, set := range sets {
			if !reflect.DeepEqual(set, want) {
				t.Fatalf("%s: concurrent collection %d differs from the serial one", c.bench, i)
			}
		}
	}
}
