package validate

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/perfmetrics/eventlens/internal/analysis"
	"github.com/perfmetrics/eventlens/internal/core"
	"github.com/perfmetrics/eventlens/internal/machine"
)

// builtins is the registry of the committed platforms.
func builtins(t *testing.T) *machine.Registry {
	t.Helper()
	reg, err := machine.NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestRunSPR validates the full SPR catalog and pins the headline facts the
// catalog is built to exhibit: the exact documented events are valid, the
// FMA double-counting shows up as scaled, fillers classify as derived or
// bogus, and the heteroscedastic tail is noisy.
func TestRunSPR(t *testing.T) {
	r, err := RunIn(context.Background(), builtins(t), Request{Platform: "spr"})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", r.Format())
	if r.Platform != "spr-sim" {
		t.Errorf("platform %q, want spr-sim", r.Platform)
	}
	if got := strings.Join(r.Benchmarks, ","); got != "cpu-flops,branch,dcache" {
		t.Errorf("benchmarks %q, want cpu-flops,branch,dcache", got)
	}
	byName := map[string]EventTrust{}
	for _, e := range r.Events {
		byName[e.Event] = e
	}
	for name, want := range map[string]string{
		// Exactly documented events fit at scale 1.
		"BR_INST_RETIRED:COND":       VerdictValid,
		"MEM_INST_RETIRED:ALL_LOADS": VerdictValid,
		// Uniform documentation-vs-silicon prescalers fit at scale != 1.
		"CPU_CLK_UNHALTED:REF_TSC":      VerdictScaled,
		"OFFCORE_REQUESTS:ALL_REQUESTS": VerdictScaled,
		"BR_MISP_RETIRED:COND_TAKEN":    VerdictScaled,
		// FMA double-counting is not a uniform scale — only FMA kernels are
		// off — so the event correlates with its documentation without
		// fitting it.
		"FP_ARITH_INST_RETIRED:SCALAR_DOUBLE": VerdictDerived,
	} {
		if got := byName[name].Verdict; got != want {
			t.Errorf("%s: verdict %q, want %q (evidence %+v)", name, got, want, byName[name])
		}
	}
	if len(r.Dropped) != 0 || len(r.Degraded) != 0 {
		t.Errorf("clean run dropped %v / degraded %v", r.Dropped, r.Degraded)
	}
	total := 0
	for _, n := range r.Counts {
		total += n
	}
	if total != len(r.Events) {
		t.Errorf("counts sum to %d, events %d", total, len(r.Events))
	}
}

// TestRunMI250X validates the GPU catalog: the ADD events (silicon counts
// subtractions too) must not come out valid, and GRBM_COUNT's 1.2x prescaler
// must classify as scaled.
func TestRunMI250X(t *testing.T) {
	r, err := RunIn(context.Background(), builtins(t), Request{Platform: "mi250x"})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", r.Format())
	byName := map[string]EventTrust{}
	for _, e := range r.Events {
		byName[e.Event] = e
	}
	if e, ok := byName["rocm:::GRBM_COUNT:device=0"]; ok {
		if e.Verdict != VerdictScaled {
			t.Errorf("GRBM_COUNT: verdict %q, want scaled (scale %.3f)", e.Verdict, e.Scale)
		}
	} else {
		t.Errorf("GRBM_COUNT:device=0 missing from report")
	}
}

// TestDeterministicAcrossWorkers pins the determinism contract: the
// canonical envelope is byte-identical for serial and concurrent collection.
func TestDeterministicAcrossWorkers(t *testing.T) {
	serial, err := RunIn(context.Background(), builtins(t), Request{Platform: "spr", Benchmarks: []string{"branch"}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunIn(context.Background(), builtins(t), Request{Platform: "spr", Benchmarks: []string{"branch"}, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	a, errA := NewEnvelope(serial).Encode()
	b, errB := NewEnvelope(parallel).Encode()
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("workers changed the canonical report:\n--- workers=1\n%s\n--- workers=8\n%s", a, b)
	}
}

// TestRequestKey pins the canonical key: worker count excluded, benchmark
// spelling canonicalized, faults and tolerances included.
func TestRequestKey(t *testing.T) {
	reg := builtins(t)
	k1, err := Request{Platform: "spr", Workers: 1}.KeyIn(reg)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := Request{Platform: "spr-sim", Workers: 8}.KeyIn(reg)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("equivalent requests key differently: %q vs %q", k1, k2)
	}
	k3, err := Request{Platform: "spr", Faults: "seed=7,transient=0.5"}.KeyIn(reg)
	if err != nil {
		t.Fatal(err)
	}
	if k3 == k1 {
		t.Errorf("faulted request shares the clean key %q", k1)
	}
	if _, err := (Request{Platform: "nope"}).KeyIn(reg); err == nil {
		t.Errorf("unknown platform produced a key")
	}
	if _, err := (Request{Platform: "spr", Benchmarks: []string{"gpu-flops"}}).KeyIn(reg); err == nil {
		t.Errorf("cross-platform benchmark selection produced a key")
	}
	if _, err := (Request{Platform: "spr", Workers: -1}).KeyIn(reg); err == nil {
		t.Errorf("negative workers produced a key")
	}
	if _, err := (Request{Platform: "spr", Tolerances: &Tolerances{}}).KeyIn(reg); err == nil {
		t.Errorf("zero tolerances produced a key")
	}
	// The key names the definition it reads, and Key forwards to KeyIn over
	// the built-ins.
	if ref, _ := reg.Ref("spr"); !strings.HasPrefix(k1, ref+"|") {
		t.Errorf("key %q does not name the platform's Ref %q", k1, ref)
	}
	if k, err := (Request{Platform: "spr", Workers: 1}).Key(); err != nil || k != k1 {
		t.Errorf("Key() = %q, %v; want KeyIn's %q", k, err, k1)
	}
}

// TestDegradedUnderFaults pins graceful degradation. With a retry budget of
// zero and a high transient rate, group reads drop events; benchmarks losing
// every event degrade into the report, and only a validation losing every
// benchmark fails.
func TestDegradedUnderFaults(t *testing.T) {
	r, err := RunIn(context.Background(), builtins(t), Request{Platform: "spr", Faults: "seed=3,transient=0.5,retries=0"})
	if err != nil {
		t.Fatalf("partial fault injection should degrade, not fail: %v", err)
	}
	t.Logf("degraded: %+v, benchmarks: %v, dropped: %d, events: %d",
		r.Degraded, r.Benchmarks, len(r.Dropped), len(r.Events))
	if len(r.Degraded)+len(r.Benchmarks) != 3 {
		t.Errorf("degraded (%d) + surviving (%d) != 3 spr benchmarks", len(r.Degraded), len(r.Benchmarks))
	}
	if len(r.Benchmarks) == 0 {
		t.Fatalf("every benchmark degraded at transient=0.5; expected survivors")
	}
	if len(r.Dropped) == 0 {
		t.Errorf("transient=0.5 with no retries dropped no events")
	}
	// Injection sinking every benchmark is an error, not an empty report.
	if _, err := RunIn(context.Background(), builtins(t), Request{Platform: "spr", Faults: "seed=3,transient=1.0,retries=0"}); err == nil {
		t.Errorf("total fault injection should fail once every benchmark is lost")
	}
}

// TestEndedContextNeverDegrades: under fault injection a benchmark whose
// profile fails degrades into the report, but one that fails because the
// context ended fails the validation, even on the last benchmark, where no
// later check would catch it: a degraded report would be cached as the
// request's answer.
func TestEndedContextNeverDegrades(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	profile := func(ctx context.Context, id analysis.ID) (*core.NoiseProfile, error) {
		if id.Bench.Name == "dcache" {
			cancel()
			return nil, ctx.Err()
		}
		return id.Profile(ctx)
	}
	r, err := RunWith(ctx, builtins(t), Request{Platform: "spr", Faults: "seed=3,transient=0.1,retries=0"}, profile)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("report %+v, err %v; want context.Canceled", r, err)
	}
}

// TestClassifyTable exercises the decision tree directly on synthetic
// vectors.
func TestClassifyTable(t *testing.T) {
	tol := DefaultTolerances()
	d := []float64{1, 2, 3, 4}
	cases := []struct {
		name       string
		documented bool
		noise      float64
		m, d       []float64
		want       string
	}{
		{"exact", true, 0, []float64{1, 2, 3, 4}, d, VerdictValid},
		{"doubled", true, 0, []float64{2, 4, 6, 8}, d, VerdictScaled},
		{"correlated", true, 0, []float64{1, 2.6, 2.4, 5}, d, VerdictDerived},
		{"unrelated", true, 0, []float64{4, 0, 0, 0.1}, d, VerdictBogus},
		{"noisy", true, 1, []float64{1, 2, 3, 4}, d, VerdictNoisy},
		{"silent-doc-silent", true, 0, []float64{0, 0, 0, 0}, []float64{0, 0, 0, 0}, VerdictValid},
		{"silent-doc-counting", true, 0, []float64{1, 1, 1, 1}, []float64{0, 0, 0, 0}, VerdictBogus},
		{"doc-counting-silent", true, 0, []float64{0, 0, 0, 0}, d, VerdictBogus},
		{"undocumented-counting", false, 0, []float64{1, 1, 1, 1}, nil, VerdictDerived},
		{"undocumented-silent", false, 0, []float64{0, 0, 0, 0}, nil, VerdictBogus},
	}
	for _, c := range cases {
		dv := c.d
		if dv == nil {
			dv = make([]float64, len(c.m))
		}
		got := classify(tol, c.documented, c.noise, c.m, dv)
		if got.Verdict != c.want {
			t.Errorf("%s: verdict %q, want %q (%+v)", c.name, got.Verdict, c.want, got)
		}
	}
}

// TestRegistryPlatforms pins the registry generalization: every committed
// platform resolves (full name and shorthand), benchmark selection follows
// the platform's class, and a data-only platform validates end to end.
func TestRegistryPlatforms(t *testing.T) {
	reg := builtins(t)
	for _, name := range []string{"spr", "mi250x", "zen4", "icl", "graviton", "h100", "spr-smtoff"} {
		res, err := Request{Platform: name}.resolve(reg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.platform != name+"-sim" {
			t.Errorf("%s resolved to %q", name, res.platform)
		}
	}
	// Class drives benchmark selection: a cpu platform never accepts the GPU
	// benchmark, and its key lists the three cpu benchmarks.
	if _, err := (Request{Platform: "graviton", Benchmarks: []string{"gpu-flops"}}).KeyIn(reg); err == nil {
		t.Error("gpu benchmark keyed on a cpu platform")
	}
	k, err := Request{Platform: "graviton"}.KeyIn(reg)
	if err != nil {
		t.Fatal(err)
	}
	if ref, _ := reg.Ref("graviton"); !strings.HasPrefix(k, ref+"|cpu-flops,branch,dcache|") {
		t.Errorf("graviton key = %q", k)
	}
	// A data-only platform validates: graviton's branch catalog is built so
	// its documented events hold up.
	report, err := RunIn(context.Background(), builtins(t), Request{Platform: "graviton", Benchmarks: []string{"branch"}})
	if err != nil {
		t.Fatal(err)
	}
	if report.Platform != "graviton-sim" || len(report.Events) == 0 {
		t.Fatalf("graviton report: platform %q, %d events", report.Platform, len(report.Events))
	}
	if report.Counts[VerdictValid] == 0 {
		t.Errorf("graviton branch validation found no valid events: %v", report.Counts)
	}
}
