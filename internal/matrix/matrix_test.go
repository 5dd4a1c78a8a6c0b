package matrix

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/perfmetrics/eventlens/internal/goldie"
	"github.com/perfmetrics/eventlens/internal/machine"
	"github.com/perfmetrics/eventlens/internal/platdef"
)

func reg(t *testing.T) *machine.Registry {
	t.Helper()
	r, err := machine.NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRequestKey(t *testing.T) {
	r := reg(t)
	k1, err := Request{Platforms: []string{"spr", "graviton"}, Benchmarks: []string{"branch"}, Workers: 1}.Key(r)
	if err != nil {
		t.Fatal(err)
	}
	// Aliases, ordering and worker counts cannot split the key.
	k2, err := Request{Platforms: []string{"graviton-sim", "spr-sim"}, Benchmarks: []string{"branch"}, Workers: 8}.Key(r)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("equivalent requests key differently: %q vs %q", k1, k2)
	}
	// The default platform set is every registered platform, spelled out.
	kAll, err := Request{}.Key(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range r.Names() {
		if ref, _ := r.Ref(name); !strings.Contains(kAll, ref) {
			t.Errorf("default key %q misses platform %s", kAll, ref)
		}
	}
	// A platform dir that redefines zen4 changes the keys that read it, and
	// only those.
	raw, err := platdef.BuiltinBytes("zen4-sim")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	edited := bytes.Replace(raw, []byte("counters 6"), []byte("counters 5"), 1)
	if err := os.WriteFile(filepath.Join(dir, "zen4-sim.pdef"), edited, 0o644); err != nil {
		t.Fatal(err)
	}
	over, err := machine.NewRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		platform string
		same     bool
	}{{"zen4", false}, {"spr", true}} {
		req := Request{Platforms: []string{tc.platform}, Benchmarks: []string{"branch"}}
		kb, err1 := req.Key(r)
		ko, err2 := req.Key(over)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if (kb == ko) != tc.same {
			t.Errorf("%s: built-in key %q, overridden key %q", tc.platform, kb, ko)
		}
	}
	// Threshold, minimal and faults all change results, so they change keys.
	for name, req := range map[string]Request{
		"threshold": {Platforms: []string{"spr"}, Benchmarks: []string{"branch"}, Threshold: 1e-3},
		"minimal":   {Platforms: []string{"spr"}, Benchmarks: []string{"branch"}, Minimal: true},
		"faults":    {Platforms: []string{"spr"}, Benchmarks: []string{"branch"}, Faults: "seed=7,transient=0.5"},
	} {
		base, err := Request{Platforms: []string{"spr"}, Benchmarks: []string{"branch"}}.Key(r)
		if err != nil {
			t.Fatal(err)
		}
		k, err := req.Key(r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if k == base {
			t.Errorf("%s request shares the base key %q", name, base)
		}
	}
	// Invalid requests never key.
	for name, req := range map[string]Request{
		"unknown platform": {Platforms: []string{"m2max"}},
		"unknown bench":    {Benchmarks: []string{"nope"}},
		"class mismatch":   {Platforms: []string{"mi250x"}, Benchmarks: []string{"branch"}},
		"neg workers":      {Workers: -1},
		"neg threshold":    {Threshold: -1e-6},
		"bad faults":       {Faults: "wat"},
	} {
		if _, err := req.Key(r); err == nil {
			t.Errorf("%s produced a key", name)
		}
	}
	if _, err := (Request{}).Key(nil); err == nil {
		t.Error("nil registry produced a key")
	}
}

// TestWorkerIdentity pins the determinism contract: Workers=1 and Workers=N
// produce byte-identical envelopes.
func TestWorkerIdentity(t *testing.T) {
	r := reg(t)
	req := Request{Platforms: []string{"spr", "graviton", "h100"}, Benchmarks: []string{"branch", "gpu-flops"}}
	req.Workers = 1
	serial, err := Run(context.Background(), r, req)
	if err != nil {
		t.Fatal(err)
	}
	req.Workers = 8
	parallel, err := Run(context.Background(), r, req)
	if err != nil {
		t.Fatal(err)
	}
	a := NewEnvelope(serial).CanonicalJSON()
	b := NewEnvelope(parallel).CanonicalJSON()
	if !bytes.Equal(a, b) {
		t.Fatalf("worker count changed the matrix:\n--- serial\n%s\n--- parallel\n%s", a, b)
	}
}

// TestCrossArchitectureFlips pins the headline cross-architecture results
// the committed platform files encode: the same metric flips verdict
// between architectures for documented microarchitectural reasons.
func TestCrossArchitectureFlips(t *testing.T) {
	r := reg(t)
	rep, err := Run(context.Background(), r, Request{
		Platforms:  []string{"spr", "graviton", "zen4", "mi250x", "h100"},
		Benchmarks: []string{"branch", "gpu-flops", "cpu-flops"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cell := func(platform, metric string) Cell {
		for _, c := range rep.Cells {
			if c.Platform == platform && c.Metric == metric {
				return c
			}
		}
		t.Fatalf("no cell for %s / %s", platform, metric)
		return Cell{}
	}
	// ARM exposes speculatively executed conditional branches; x86 retires
	// only (the paper's Table VII non-composability).
	if !cell("graviton-sim", "Conditional Branches Executed.").Composable {
		t.Error("graviton: Conditional Branches Executed. should compose (BR_COND_SPEC)")
	}
	if cell("spr-sim", "Conditional Branches Executed.").Composable {
		t.Error("spr: Conditional Branches Executed. should not compose (retired-only events)")
	}
	// Per-op GPU counters vs the MI250X add/sub merge (Table VI).
	if !cell("h100-sim", "HP Add Ops.").Composable {
		t.Error("h100: HP Add Ops. should compose (per-op counters)")
	}
	if c := cell("mi250x-sim", "HP Add Ops."); c.Composable || c.BackwardError < 0.1 {
		t.Errorf("mi250x: HP Add Ops. should be non-composable with a large error, got %+v", c)
	}
	// Zen4's precision-merged FP events break precision-specific metrics
	// (Section III-B).
	if cell("zen4-sim", "DP Ops.").Composable {
		t.Error("zen4: DP Ops. should not compose (precision-merged events)")
	}
	if !cell("spr-sim", "DP Ops.").Composable {
		t.Error("spr: DP Ops. should compose")
	}
}

// TestMatrixGolden pins the full rendering and envelope of a small matrix.
func TestMatrixGolden(t *testing.T) {
	r := reg(t)
	rep, err := Run(context.Background(), r, Request{
		Platforms:  []string{"spr", "graviton"},
		Benchmarks: []string{"branch"},
	})
	if err != nil {
		t.Fatal(err)
	}
	goldie.Assert(t, "matrix_branch", NewEnvelope(rep).CanonicalJSON())
}

// TestDegradedUnderFaults pins graceful degradation: pairs losing their
// collection under injection degrade into the report; only a matrix losing
// every pair fails.
func TestDegradedUnderFaults(t *testing.T) {
	r := reg(t)
	req := Request{
		Platforms:  []string{"spr", "graviton"},
		Benchmarks: []string{"branch", "cpu-flops"},
		Faults:     "seed=3,transient=0.1,retries=0",
	}
	rep, err := Run(context.Background(), r, req)
	if err != nil {
		t.Fatalf("partial fault injection should degrade, not fail: %v", err)
	}
	if len(rep.Degraded) == 0 {
		t.Error("transient=0.1 with no retries degraded no pair")
	}
	if rep.Total == 0 {
		t.Fatal("no surviving cells at transient=0.1")
	}
	pairs := make(map[string]bool)
	for _, c := range rep.Cells {
		pairs[c.Platform+"/"+c.Benchmark] = true
	}
	if len(pairs)+len(rep.Degraded) != 4 {
		t.Errorf("surviving pairs (%d) + degraded (%d) != 4", len(pairs), len(rep.Degraded))
	}
	// Degradation is deterministic too.
	rep2, err := Run(context.Background(), r, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(NewEnvelope(rep).CanonicalJSON(), NewEnvelope(rep2).CanonicalJSON()) {
		t.Error("faulted matrix is not deterministic")
	}
	// Injection sinking every pair is an error, not an empty report.
	if _, err := Run(context.Background(), r, Request{
		Platforms:  []string{"spr"},
		Benchmarks: []string{"branch"},
		Faults:     "seed=3,transient=1.0,retries=0",
	}); err == nil {
		t.Error("total fault injection should fail once every pair is lost")
	}
}

// TestMinimalKernels runs a cell under minimal spanning-kernel collection;
// verdicts for exactly-composable metrics must hold on the reduced point
// set.
func TestMinimalKernels(t *testing.T) {
	r := reg(t)
	rep, err := Run(context.Background(), r, Request{
		Platforms:  []string{"spr"},
		Benchmarks: []string{"branch"},
		Minimal:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Minimal {
		t.Error("report lost the minimal flag")
	}
	for _, c := range rep.Cells {
		if c.Metric == "Mispredicted Branches." && !c.Composable {
			t.Errorf("minimal collection broke %s: %+v", c.Metric, c)
		}
	}
}
