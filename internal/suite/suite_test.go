package suite

import (
	"context"
	"testing"

	"github.com/perfmetrics/eventlens/internal/cat"
)

func TestAllBenchmarksWellFormed(t *testing.T) {
	all := All()
	if len(all) != 4 {
		t.Fatalf("expected 4 benchmarks, got %d", len(all))
	}
	seen := map[string]bool{}
	for _, b := range all {
		if seen[b.Name] {
			t.Fatalf("duplicate benchmark %q", b.Name)
		}
		seen[b.Name] = true
		if b.Platform == "" || b.Driver == nil {
			t.Fatalf("%s: missing wiring", b.Name)
		}
		if len(b.Signatures) == 0 || len(b.BasisSymbols) == 0 {
			t.Fatalf("%s: missing signatures", b.Name)
		}
		basis, err := b.Basis()
		if err != nil {
			t.Fatalf("%s: basis: %v", b.Name, err)
		}
		if err := basis.CheckFullRank(); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if len(b.PointNames()) != basis.Points() {
			t.Fatalf("%s: %d point names for %d basis points", b.Name, len(b.PointNames()), basis.Points())
		}
		if len(b.BasisSymbols) != basis.Dim() {
			t.Fatalf("%s: %d symbols for %d basis dims", b.Name, len(b.BasisSymbols), basis.Dim())
		}
		for _, sig := range b.Signatures {
			if err := sig.CheckDim(basis.Dim()); err != nil {
				t.Fatalf("%s: %v", b.Name, err)
			}
		}
		if err := b.DefaultRun.Validate(); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	b, err := ByName("branch")
	if err != nil {
		t.Fatal(err)
	}
	if b.Name != "branch" || b.MetricTable != "VII" {
		t.Fatalf("wrong benchmark: %+v", b)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatalf("unknown name should fail")
	}
}

func TestNamesOrder(t *testing.T) {
	names := Names()
	want := []string{"cpu-flops", "gpu-flops", "branch", "dcache"}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("names = %v want %v", names, want)
		}
	}
}

func TestAnalyzeEndToEnd(t *testing.T) {
	b, err := ByName("branch")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	set, err := b.Collect(ctx, cat.RunConfig{Reps: 3, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.AnalyzeSet(ctx, set, b.Config)
	if err != nil {
		t.Fatal(err)
	}
	if set.Benchmark != "branch" {
		t.Fatalf("set benchmark = %q", set.Benchmark)
	}
	if len(res.SelectedEvents) != 4 {
		t.Fatalf("selected %d events, want 4", len(res.SelectedEvents))
	}
	defs, err := res.DefineMetrics(b.Signatures)
	if err != nil {
		t.Fatal(err)
	}
	if len(defs) != len(b.Signatures) {
		t.Fatalf("defined %d metrics, want %d", len(defs), len(b.Signatures))
	}
}

func TestTableAndFigureLabels(t *testing.T) {
	labels := map[string][2]string{
		"cpu-flops": {"V", "2b"},
		"gpu-flops": {"VI", "2c"},
		"branch":    {"VII", "2a"},
		"dcache":    {"VIII", "2d"},
	}
	for _, b := range All() {
		want := labels[b.Name]
		if b.MetricTable != want[0] || b.Figure != want[1] {
			t.Fatalf("%s: table %s figure %s, want %s %s", b.Name, b.MetricTable, b.Figure, want[0], want[1])
		}
	}
}
