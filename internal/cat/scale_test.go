package cat

import (
	"context"
	"strings"
	"testing"

	"github.com/perfmetrics/eventlens/internal/core"
	"github.com/perfmetrics/eventlens/internal/machine"
)

// Scale tests: the analysis must find the same 8 FP events when they hide
// inside catalogs of tens of thousands of events — the regime the paper's
// introduction describes.

func runScaledCPUFlops(tb testing.TB, nFiller, reps int) *core.Result {
	tb.Helper()
	platform, err := machine.SyntheticCatalog(nFiller, 42)
	if err != nil {
		tb.Fatal(err)
	}
	set, err := Collect("cpu-flops", NewFlopsCPU(), platform, RunConfig{Reps: reps, Threads: 1})
	if err != nil {
		tb.Fatal(err)
	}
	basis, err := NewFlopsCPU().Basis()
	if err != nil {
		tb.Fatal(err)
	}
	pipe := &core.Pipeline{Basis: basis, Config: core.DefaultConfig()}
	res, err := pipe.Analyze(set)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

func TestScaleTenThousandEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in -short mode")
	}
	res := runScaledCPUFlops(t, 10000, 3)
	if len(res.SelectedEvents) != 8 {
		t.Fatalf("selected %d events at 10k scale: %v", len(res.SelectedEvents), res.SelectedEvents)
	}
	for _, name := range res.SelectedEvents {
		if len(name) < 4 || name[:4] == "SYN_" {
			t.Fatalf("synthetic filler selected: %s", name)
		}
	}
	def, err := res.DefineMetric(core.CPUFlopsSignatures()[4]) // DP Ops.
	if err != nil {
		t.Fatal(err)
	}
	if def.BackwardError > 1e-10 {
		t.Fatalf("DP Ops error at scale = %v", def.BackwardError)
	}
}

// TestScaleHundredThousandEvents: the paper's motivating scale, a
// 100k-event catalog, through the stages every served analysis runs:
// Measure on the platform's plan, the readings reduced straight into their
// noise profile, and the profile analyzed.
func TestScaleHundredThousandEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in -short mode")
	}
	platform, err := machine.SyntheticCatalog(100000, 99)
	if err != nil {
		t.Fatal(err)
	}
	bench := NewFlopsCPU()
	readings, err := Measure("cpu-flops", bench, platform, RunConfig{Reps: 2, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	basis, err := bench.Basis()
	if err != nil {
		t.Fatal(err)
	}
	pipe := &core.Pipeline{Basis: basis, Config: core.DefaultConfig()}
	res, err := pipe.AnalyzeProfile(context.Background(), readings.Profile(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.QR.Rank != 8 {
		t.Fatalf("rank = %d want 8 at 100k-event scale", res.QR.Rank)
	}
	for _, name := range res.SelectedEvents {
		if strings.HasPrefix(name, "SYN_") {
			t.Fatalf("synthetic filler selected: %s", name)
		}
	}
	def, err := res.DefineMetric(core.CPUFlopsSignatures()[4]) // DP Ops.
	if err != nil {
		t.Fatal(err)
	}
	if def.BackwardError > 1e-10 {
		t.Fatalf("DP Ops error at 100k-event scale = %v", def.BackwardError)
	}
}

func TestSyntheticCatalogStructure(t *testing.T) {
	p, err := machine.SyntheticCatalog(500, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events) < 500 {
		t.Fatalf("catalog too small: %d", len(p.Events))
	}
	// The real signal events must be present.
	if _, ok := p.Lookup("FP_ARITH_INST_RETIRED:256B_PACKED_DOUBLE"); !ok {
		t.Fatalf("signal event missing from synthetic catalog")
	}
	// Generation is deterministic.
	p2, err := machine.SyntheticCatalog(500, 7)
	if err != nil {
		t.Fatal(err)
	}
	a, b := p.Names(), p2.Names()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("synthetic catalog not deterministic at %d", i)
		}
	}
}

func BenchmarkScalePipeline10kEvents(b *testing.B) {
	platform, err := machine.SyntheticCatalog(10000, 42)
	if err != nil {
		b.Fatal(err)
	}
	set, err := Collect("cpu-flops", NewFlopsCPU(), platform, RunConfig{Reps: 3, Threads: 1})
	if err != nil {
		b.Fatal(err)
	}
	basis, err := NewFlopsCPU().Basis()
	if err != nil {
		b.Fatal(err)
	}
	pipe := &core.Pipeline{Basis: basis, Config: core.DefaultConfig()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipe.Analyze(set); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScaleCollect10kEvents(b *testing.B) {
	platform, err := machine.SyntheticCatalog(10000, 42)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Collect("cpu-flops", NewFlopsCPU(), platform, RunConfig{Reps: 3, Threads: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
