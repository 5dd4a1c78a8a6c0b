package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/perfmetrics/eventlens/internal/cli"
)

func TestGeneratorDeterminism(t *testing.T) {
	const n = 400
	for _, w := range workloads() {
		again, err := workloadByName(w.name)
		if err != nil {
			t.Fatal(err)
		}
		differs := false
		for i := 0; i < n; i++ {
			a, b := w.gen(1, i), again.gen(1, i)
			if a.Path != b.Path || !bytes.Equal(a.Body, b.Body) {
				t.Fatalf("%s: request %d differs between two generators at the same seed", w.name, i)
			}
			if c := w.gen(2, i); c.Path != a.Path || !bytes.Equal(c.Body, a.Body) {
				differs = true
			}
		}
		if !differs {
			t.Errorf("%s: seeds 1 and 2 generate the same %d requests", w.name, n)
		}
	}
}

// TestMain lets the test binary stand in for the loadgen binary, which
// runs start again (os.Executable) to time cold set-ups.
func TestMain(m *testing.M) {
	const child = "LOADGEN_TEST_RUN_MAIN"
	if os.Getenv(child) == "1" {
		main()
	}
	if err := os.Setenv(child, "1"); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func TestWorkloadMixes(t *testing.T) {
	share := func(n, of int) float64 { return float64(n) / float64(of) }
	const n = 4000

	cold, _ := workloadByName("analyze-cold")
	seen := map[string]bool{}
	measurementKeys := map[string]bool{}
	perBench := map[string]int{}
	for i := 0; i < n; i++ {
		r := cold.gen(7, i)
		if seen[string(r.Body)] {
			t.Fatalf("analyze-cold repeats request %s", r.Body)
		}
		seen[string(r.Body)] = true
		measurementKeys[r.Analyze.Run.MeasurementKey(r.Analyze.Benchmark)] = true
		perBench[r.Analyze.Benchmark]++
	}
	if len(measurementKeys) != 54 {
		t.Errorf("analyze-cold covers %d measurement keys, want 54", len(measurementKeys))
	}
	for b, c := range perBench {
		if s := share(c, n); s < 0.22 || s > 0.28 {
			t.Errorf("analyze-cold: %s has share %.3f, want 0.25", b, s)
		}
	}

	tier, _ := workloadByName("tier-sweep")
	newKey := map[string]int{}
	revisits, afterFresh := 0, 0
	for i := 0; i < n; i++ {
		r := tier.gen(3, i)
		k, isNew := tierSlot(i)
		if i > revisitGap {
			afterFresh++
		}
		if isNew {
			if _, dup := newKey[string(r.Body)]; dup || k != len(newKey) {
				t.Fatalf("tier-sweep request %d: new key %d after %d new keys (repeat: %v)", i, k, len(newKey), dup)
			}
			newKey[string(r.Body)] = k
			continue
		}
		revisits++
		first, ok := newKey[string(r.Body)]
		if !ok {
			t.Fatalf("tier-sweep request %d revisits a key never issued", i)
		}
		if newer := k - 1 - first; newer < revisitGap {
			t.Errorf("tier-sweep request %d revisits a key with %d newer keys, want >= %d", i, newer, revisitGap)
		}
	}
	if s := share(revisits, afterFresh); s < 0.399 || s > 0.401 {
		t.Errorf("tier-sweep revisit share = %.3f, want 0.4", s)
	}

	batch, _ := workloadByName("matrix-batch")
	counts := map[string]int{}
	for i := 0; i < n; i++ {
		r := batch.gen(5, i)
		switch {
		case r.Validate != nil:
			counts["validate"]++
		case r.Matrix.Benchmarks[0] == "gpu-flops":
			counts["gpu"]++
		default:
			counts["cpu"]++
			if r.Matrix.Benchmarks[0] == "dcache" {
				counts["dcache"]++
			}
		}
	}
	for kind, want := range map[string]float64{"cpu": 0.5, "gpu": 0.25, "validate": 0.25, "dcache": 0.5 / 3} {
		if s := share(counts[kind], n); s < want-0.03 || s > want+0.03 {
			t.Errorf("matrix-batch: %s share = %.3f, want %.3f", kind, s, want)
		}
	}
}

// smokeWorkload returns a workload for the smoke tests. matrix-batch skips
// its dcache pairs, which run for seconds on the one-worker reference
// engine.
func smokeWorkload(t *testing.T, name string) *workload {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	if name == "matrix-batch" {
		gen := w.gen
		w.gen = func(seed uint64, i int) request {
			for j := i; ; j += 1 << 20 {
				if r := gen(seed, j); r.Matrix == nil || r.Matrix.Benchmarks[0] != "dcache" {
					return r
				}
			}
		}
	}
	return w
}

// A one-millisecond window lets each client send about one request; one
// cold set-up exercises the -setup-only child.
var smokeOptions = options{seed: 1, window: time.Millisecond, setups: 1}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("serves every workload")
	}
	for _, w := range workloads() {
		out, err := measure(context.Background(), smokeWorkload(t, w.name), smokeOptions)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if out.attempted == 0 || out.failed != 0 {
			t.Errorf("%s: %d of %d requests failed: %v", w.name, out.failed, out.attempted, out.errs)
		}
		for _, d := range untracedMetrics {
			if v, ok := out.values[d.name]; !ok || v.v < 0 {
				t.Errorf("%s: %s = %v", w.name, d.name, v)
			}
		}
	}
}

func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("serves two workloads")
	}
	for _, name := range []string{"tier-sweep", "matrix-batch"} {
		opt := smokeOptions
		opt.spans = t.TempDir() + "/spans.json"
		untraced := map[string]value{"throughput_rps": {100, 2}, "latency_p90_ms": {7, 2}}
		out, err := measureTraced(context.Background(), smokeWorkload(t, name), opt, untraced)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := out.values["latency_p90_ms"]; got != untraced["latency_p90_ms"] {
			t.Errorf("%s: latency_p90_ms = %v, want the untraced run's %v", name, got, untraced["latency_p90_ms"])
		}
		if out.failed != 0 || out.values["fail_ratio"].v != 0 {
			t.Errorf("%s: %d failures: %v", name, out.failed, out.errs)
		}
		shares := 0.0
		for _, l := range layers {
			shares += out.values[l+".self_share"].v
		}
		if !near(shares, 1) {
			t.Errorf("%s: self-time shares sum to %g, want 1", name, shares)
		}
		for _, d := range perLayer {
			if _, ok := out.values[d.name]; !ok {
				t.Errorf("%s: no value for %s", name, d.name)
			}
		}
		raw, err := os.ReadFile(opt.spans)
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		if err := json.Unmarshal(raw, &spans); err != nil || len(spans) == 0 {
			t.Errorf("%s: spans file holds %d spans (%v)", name, len(spans), err)
		}
	}
}

// serveOne sends one request to a fresh single-replica tier and returns the
// phase that checked its response.
func serveOne(t *testing.T, req request, body func([]byte) []byte) *phase {
	t.Helper()
	w, _ := workloadByName("analyze-cold")
	tr, err := startTier(w)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.close()
	rep, err := tr.postOK(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	p := &phase{keys: map[string]*seen{}}
	if err := p.check(0, req, body(rep.body)); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestAuditCatchesTamperedBody(t *testing.T) {
	cold, _ := workloadByName("analyze-cold")
	batch := smokeWorkload(t, "matrix-batch")
	pair := batch.gen(1, 0)
	for i := 1; pair.Matrix == nil; i++ {
		pair = batch.gen(1, i)
	}
	// One tamper hits an analysis report, the other a matrix envelope.
	cases := []struct {
		req      request
		from, to string
	}{
		{cold.gen(1, 0), "projection:", "projectiom:"},
		{pair, `"composable": `, `"composable":  `},
	}
	for _, c := range cases {
		for _, tamper := range []bool{false, true} {
			p := serveOne(t, c.req, func(b []byte) []byte {
				if !tamper {
					return b
				}
				out := bytes.Replace(b, []byte(c.from), []byte(c.to), 1)
				if bytes.Equal(out, b) {
					t.Fatalf("%s: %q not in the body", c.req.Body, c.from)
				}
				return out
			})
			mismatches, err := audit(context.Background(), cold, sampleForAudit(p.keys, 1))
			if err != nil {
				t.Fatal(err)
			}
			if want := map[bool]int{false: 0, true: 1}[tamper]; len(mismatches) != want {
				t.Errorf("%s tampered=%v: %d mismatches, want %d: %v", c.req.Body, tamper, len(mismatches), want, mismatches)
			}
		}
	}
}

func TestFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"-h"}, &stdout, &stderr); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h: got %v, want flag.ErrHelp", err)
	}
	for _, args := range [][]string{
		{"--trace", "2"},
		{"--seconds", "0"},
		{"-runs", "0"},
		{"--workload", "nosuch"},
		{"-spans", "t.json"},
		{"--workload", "serve-hot", "-spans", "t.json"},
		{"-setup-only"},
	} {
		var ue *cli.UsageError
		if err := run(context.Background(), args, io.Discard, io.Discard); !errors.As(err, &ue) {
			t.Errorf("%v: got %v, want a usage error", args, err)
		}
	}
}

func TestMetricLines(t *testing.T) {
	text := `building...
tier-sweep throughput_rps 631.6 1/s n=12632
tier-sweep heap_live_mb 40.4119 MiB n=1
serve-hot setup_s 1.2 s n=3
tier-sweep setup_s 0.730668 s n=3`
	gated := map[string]metricJSON{"setup_s": {Value: 0.73066812, Unit: "s"}}
	got, err := metricLines("tier-sweep", text, gated)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]value{
		"throughput_rps": {631.6, 12632},
		"heap_live_mb":   {40.4119, 1},
		"setup_s":        {0.73066812, 3}, // the result line's digits
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for k, w := range want {
		if g := got[k]; !near(g.v, w.v) || g.n != w.n {
			t.Errorf("%s = %v, want %v", k, g, w)
		}
	}
	if _, err := metricLines("tier-sweep", "tier-sweep setup_s fast s n=3", nil); err == nil {
		t.Error("a non-numeric value parsed")
	}
}

// TestBenchmarkJSONMatchesCode keeps the repository's BENCHMARK.json in
// step with the workloads and metrics this package defines.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bench struct {
		Command   []string
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	if err := dec.Decode(&bench); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(bench.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(bench.Workloads), len(ws))
	}
	for i, w := range ws {
		if got := bench.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the code %q: %q", i, got, w.name, w.why)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better ||
				(g.Bound == nil) != (d.bound == 0) || (g.Bound != nil && !near(*g.Bound, d.bound)) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the code %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", bench.EndToEnd, endToEnd)
	check("per_layer", bench.PerLayer, perLayer)
	if strings.Join(bench.Paths, ",") != "cmd/loadgen" {
		t.Errorf("paths = %v", bench.Paths)
	}
}
