package cat

import (
	"math"
	"strings"
	"testing"

	"github.com/perfmetrics/eventlens/internal/core"
	"github.com/perfmetrics/eventlens/internal/machine"
)

// These tests exercise the cross-architecture claim of the paper's
// Section III-B: on AMD-style hardware the FP events merge precisions, so
// precision-specific metrics stop being composable while width metrics
// remain exact — and the analysis must discover this automatically from the
// same benchmark and signatures.

func zen4Platform(t *testing.T) *machine.Platform {
	t.Helper()
	p, err := machine.BuiltinPlatform("zen4-sim")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func analyzeZen4Flops(t *testing.T) *core.Result {
	t.Helper()
	set, err := Collect("cpu-flops", NewFlopsCPU(), zen4Platform(t), DefaultRunConfig())
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
	return res
}

func TestZen4QRCPSelectsMergedWidthEvents(t *testing.T) {
	res := analyzeZen4Flops(t)
	if len(res.SelectedEvents) != 4 {
		t.Fatalf("selected %d events, want the 4 width events: %v",
			len(res.SelectedEvents), res.SelectedEvents)
	}
	for _, name := range res.SelectedEvents {
		if !strings.HasPrefix(name, "RETIRED_SSE_AVX_OPS:") || !strings.HasSuffix(name, "_ALL") {
			t.Fatalf("unexpected selection %q", name)
		}
	}
}

func TestZen4PrecisionMetricsNotComposable(t *testing.T) {
	// DP Ops. (and every precision-specific signature) must come out with a
	// large backward error: the hardware cannot distinguish precisions.
	res := analyzeZen4Flops(t)
	for _, sig := range core.CPUFlopsSignatures() {
		def, err := res.DefineMetric(sig)
		if err != nil {
			t.Fatal(err)
		}
		if def.Composable(1e-2) {
			t.Errorf("%s unexpectedly composable on zen4-sim (error %.3g)",
				sig.Name, def.BackwardError)
		}
	}
}

func TestZen4WidthMetricsComposable(t *testing.T) {
	// A precision-agnostic signature — all scalar FP instructions of any
	// precision, FMA counted once (the Zen semantics) — composes exactly.
	res := analyzeZen4Flops(t)
	sig := core.Signature{
		Name: "Scalar FP Instrs. (any precision)",
		// Basis order: SP widths, DP widths, SP FMA widths, DP FMA widths.
		Coeffs: []float64{1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0},
	}
	def, err := res.DefineMetric(sig)
	if err != nil {
		t.Fatal(err)
	}
	if def.BackwardError > 1e-12 {
		t.Fatalf("width metric error = %v want ~0", def.BackwardError)
	}
	var scalarCoeff float64
	for _, term := range def.Terms {
		if term.Event == "RETIRED_SSE_AVX_OPS:SCALAR_ALL" {
			scalarCoeff = term.Coeff
		} else if math.Abs(term.Coeff) > 1e-10 {
			t.Fatalf("unexpected contribution from %s: %v", term.Event, term.Coeff)
		}
	}
	if math.Abs(scalarCoeff-1) > 1e-10 {
		t.Fatalf("scalar coefficient = %v want 1", scalarCoeff)
	}
}

func TestZen4BranchMetricsStillCompose(t *testing.T) {
	// The branch subsystem is architecture-portable: the same signatures
	// compose on Zen4's differently-named events.
	set, err := Collect("branch", NewBranch(), zen4Platform(t), DefaultRunConfig())
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
	want := []string{"EX_RET_BRN_MISP", "EX_RET_COND", "EX_RET_COND_TAKEN", "EX_RET_BRN"}
	if !sameSet(res.SelectedEvents, want) {
		t.Fatalf("selected = %v want %v", res.SelectedEvents, want)
	}
	for _, sig := range core.BranchSignatures() {
		def, err := res.DefineMetric(sig)
		if err != nil {
			t.Fatal(err)
		}
		if sig.Name == "Conditional Branches Executed." {
			if math.Abs(def.BackwardError-1) > 1e-9 {
				t.Errorf("executed error = %v want 1", def.BackwardError)
			}
			continue
		}
		if def.BackwardError > 1e-10 {
			t.Errorf("%s error = %v", sig.Name, def.BackwardError)
		}
	}
}

func TestZen4CacheEventsDifferButCompose(t *testing.T) {
	// Zen4 has no L1-hit event; L1 reads are exposed as total accesses
	// instead. The analysis selects whatever four independent events exist
	// and still composes the cache signatures.
	bench := testDCache()
	set, err := Collect("dcache", bench, zen4Platform(t), RunConfig{Reps: 5, Threads: 4})
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
	if len(res.SelectedEvents) != 4 {
		t.Fatalf("selected %d events: %v", len(res.SelectedEvents), res.SelectedEvents)
	}
	for _, sig := range core.CacheSignatures() {
		def, err := res.DefineMetric(sig)
		if err != nil {
			t.Fatal(err)
		}
		if def.BackwardError > 1e-2 {
			t.Errorf("%s error = %v", sig.Name, def.BackwardError)
		}
	}
}

func TestZen4CatalogBasics(t *testing.T) {
	p := zen4Platform(t)
	if len(p.Events) < 50 {
		t.Fatalf("zen4 catalog too small: %d", len(p.Events))
	}
	def, ok := p.Lookup("RETIRED_SSE_AVX_OPS:256B_ALL")
	if !ok {
		t.Fatalf("width event missing")
	}
	// Merged precision, FMA once.
	got := def.Count(machine.Stats{
		machine.FPKey("sp", "256", false): 3,
		machine.FPKey("dp", "256", false): 4,
		machine.FPKey("sp", "256", true):  5,
		machine.FPKey("dp", "256", true):  6,
	})
	if got != 18 {
		t.Fatalf("merged width event = %v want 18", got)
	}
}
