// Public API tests: everything a downstream user touches goes through the
// eventlens facade, so these tests double as documentation of the supported
// surface and as a guard against accidentally breaking it.
package eventlens_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"github.com/perfmetrics/eventlens"
)

// analyze runs a benchmark's default analysis through the facade. It names
// the registry and the analysis by their facade types, as code outside the
// module must.
func analyze(t *testing.T, benchmark string) *eventlens.Analysis {
	t.Helper()
	var reg *eventlens.Registry
	reg, err := eventlens.NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	a, err := eventlens.Analyze(context.Background(), reg, eventlens.AnalysisRequest{Benchmark: benchmark}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestPublicQuickstartFlow(t *testing.T) {
	a := analyze(t, "cpu-flops")
	if a.Profile.Platform != "spr-sim" {
		t.Fatalf("platform = %q", a.Profile.Platform)
	}
	if len(a.Result.SelectedEvents) != 8 {
		t.Fatalf("selected %d events", len(a.Result.SelectedEvents))
	}
	var dpOps *eventlens.MetricDefinition
	for _, def := range a.Defs {
		if def.Metric == "DP Ops." {
			dpOps = def
		}
	}
	if dpOps == nil || !dpOps.Composable(1e-6) {
		t.Fatalf("DP Ops should compose via the public API")
	}
}

// TestPublicBenchmarkPlatforms pins Benchmark.Platform: every benchmark
// names a built-in platform of its own class.
func TestPublicBenchmarkPlatforms(t *testing.T) {
	for _, b := range eventlens.Benchmarks() {
		p, err := eventlens.BuiltinPlatform(b.Platform)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if p.Name != b.Platform || p.Class != b.Class {
			t.Errorf("%s: platform %s is %s-class, benchmark is %s-class", b.Name, p.Name, p.Class, b.Class)
		}
	}
}

func TestPublicCustomCatalog(t *testing.T) {
	// A custom event is its response and documentation terms.
	ev := eventlens.EventDef{
		Name:       "VPU_ELEMS",
		Respond:    []eventlens.EventTerm{{Key: "cpu.instr", Coeff: 8}},
		Documented: true,
		Doc:        []eventlens.EventTerm{{Key: "cpu.instr", Coeff: 1}},
	}
	p, err := eventlens.FromDef(&eventlens.PlatformDef{
		Name: "custom-sim", Class: "cpu", Counters: 4,
		Events: []eventlens.EventDef{ev},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := p.Lookup("VPU_ELEMS")
	if !ok {
		t.Fatal("VPU_ELEMS missing from its platform")
	}
	stats := eventlens.Stats{"cpu.instr": 5}
	if n := got.Count(stats); n != 40 {
		t.Fatalf("Count = %v, want 40", n)
	}
	if doc, ok := got.DocExpectation(stats); !ok || doc != 5 {
		t.Fatalf("DocExpectation = %v, %v; want 5, true", doc, ok)
	}
}

func TestPublicCustomAnalysis(t *testing.T) {
	// The customarch flow: user-defined basis, measurements, pipeline.
	basis, err := eventlens.NewBasis(
		[]string{"X"},
		[]string{"k1", "k2"},
		eventlens.MatrixFromColumns([][]float64{{10, 20}}),
	)
	if err != nil {
		t.Fatal(err)
	}
	set := eventlens.NewMeasurementSet("custom", "p", []string{"k1", "k2"})
	for r := 0; r < 2; r++ {
		if err := set.Add("RAW", eventlens.Measurement{Rep: r, Vector: []float64{30, 60}}); err != nil {
			t.Fatal(err)
		}
	}
	pipe := &eventlens.Pipeline{Basis: basis, Config: eventlens.Config{
		Tau: 1e-8, Alpha: 1e-3, ProjectionTol: 1e-2, RoundTol: 0.05,
	}}
	res, err := pipe.Analyze(set)
	if err != nil {
		t.Fatal(err)
	}
	def, err := res.DefineMetric(eventlens.Signature{Name: "X.", Coeffs: []float64{1}})
	if err != nil {
		t.Fatal(err)
	}
	// RAW = 3x the ideal, so the metric is RAW/3.
	if math.Abs(def.Terms[0].Coeff-1.0/3) > 1e-12 {
		t.Fatalf("coefficient = %v want 1/3", def.Terms[0].Coeff)
	}
}

func TestPublicNoiseUtilities(t *testing.T) {
	vectors := [][]float64{{1, 1}, {1.01, 0.99}}
	if v := eventlens.MaxRNMSE(vectors); math.Abs(v-0.01) > 1e-12 {
		t.Fatalf("MaxRNMSE = %v", v)
	}
	if v := eventlens.MaxCV([][]float64{{1, 2}, {1, 2}}); v != 0 {
		t.Fatalf("MaxCV = %v", v)
	}
	if v := eventlens.MaxPairwiseMAD(vectors); v <= 0 {
		t.Fatalf("MaxPairwiseMAD = %v", v)
	}
	s := eventlens.SuggestTau([]eventlens.EventVariability{
		{MaxRNMSE: 0}, {MaxRNMSE: 0}, {MaxRNMSE: 0.1},
	})
	if s.Tau <= 0 {
		t.Fatalf("SuggestTau = %+v", s)
	}
}

func TestPublicQRCPUtilities(t *testing.T) {
	if eventlens.Score(0.5) != 2 || eventlens.RoundToGrid(1.0002, 5e-4) != 1 {
		t.Fatalf("score/rounding utilities broken")
	}
	x := eventlens.MatrixFromColumns([][]float64{{1, 0}, {0, 1}, {1, 1}})
	res := eventlens.SpecializedQRCP(x, 1e-4)
	if res.Rank != 2 {
		t.Fatalf("rank = %d", res.Rank)
	}
}

func TestPublicPresetFlow(t *testing.T) {
	out := eventlens.FormatPresets(analyze(t, "branch").Defs, 0.05, 1e-6)
	if !strings.Contains(out, "PRESET,PAPI_MISPREDICTED_BRANCHES,") {
		t.Fatalf("preset output missing mispredicted branches:\n%s", out)
	}
	if !strings.Contains(out, "# PAPI_CONDITIONAL_BRANCHES_EXECUTED not composable") {
		t.Fatalf("non-composable comment missing:\n%s", out)
	}
	// Every emitted preset must evaluate.
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "PRESET,") {
			continue
		}
		parts := strings.SplitN(line, ",", 5)
		events := strings.Split(parts[4], ",")
		vals := make([]float64, len(events))
		for i := range vals {
			vals[i] = float64(i + 1)
		}
		if _, err := eventlens.EvalPostfix(parts[3], vals); err != nil {
			t.Fatalf("preset %s does not evaluate: %v", parts[1], err)
		}
	}
}

func TestPublicSignatureTablesComplete(t *testing.T) {
	if len(eventlens.CPUFlopsSignatures()) != 6 ||
		len(eventlens.GPUFlopsSignatures()) != 6 ||
		len(eventlens.BranchSignatures()) != 7 ||
		len(eventlens.CacheSignatures()) != 6 {
		t.Fatalf("signature table sizes changed")
	}
}
