package analysis

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/perfmetrics/eventlens/internal/cat"
	"github.com/perfmetrics/eventlens/internal/core"
	"github.com/perfmetrics/eventlens/internal/machine"
	"github.com/perfmetrics/eventlens/internal/suite"
)

func registry(t *testing.T) *machine.Registry {
	t.Helper()
	reg, err := machine.NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestKeysNamePlatformRef pins the key formats: the analysis key is
// "<bench>|<ref>|<run>|<cfg>" with the resolved platform's Ref, so every
// spelling of the default platform shares the key a request without one
// has; define and explain append their signature and event; the
// measurement key names the Ref too, so two platforms never share a set.
func TestKeysNamePlatformRef(t *testing.T) {
	reg := registry(t)
	bench, err := suite.ByName("cpu-flops")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := reg.Ref("spr-sim")
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("cpu-flops|%s|%s|%s", ref, bench.DefaultRun, bench.Config)
	for _, platform := range []string{"", "spr", "spr-sim"} {
		key, err := Request{Benchmark: "cpu-flops", Platform: platform}.Key(reg)
		if err != nil || key != want {
			t.Fatalf("platform %q: key %q, %v; want %q", platform, key, err, want)
		}
	}

	dp := core.Signature{Name: "DP Ops.", Coeffs: []float64{0, 0, 0, 0, 1, 2, 4, 8, 0, 0, 0, 0, 2, 4, 8, 16}}
	namedKey, err1 := DefineRequest{Request: Request{Benchmark: "cpu-flops"}, Metric: "DP Ops."}.Key(reg)
	customKey, err2 := DefineRequest{Request: Request{Benchmark: "cpu-flops"}, Signature: &dp}.Key(reg)
	if err1 != nil || err2 != nil || namedKey != customKey || namedKey != want+`|{"name":"DP Ops.","coeffs":[0,0,0,0,1,2,4,8,0,0,0,0,2,4,8,16]}` {
		t.Fatalf("define keys: named %q (%v), custom %q (%v)", namedKey, err1, customKey, err2)
	}
	for _, event := range []string{"", "all"} {
		key, err := ExplainRequest{Request: Request{Benchmark: "cpu-flops"}, Event: event}.Key(reg)
		if err != nil || key != want+"|all" {
			t.Fatalf("explain %q: key %q, %v", event, key, err)
		}
	}

	spr, err := Request{Benchmark: "branch", Platform: "spr"}.Resolve(reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	graviton, err := Request{Benchmark: "branch", Platform: "graviton"}.Resolve(reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if spr.MeasurementKey() == graviton.MeasurementKey() || spr.Key() == graviton.Key() {
		t.Fatalf("spr and graviton share a key: %q, %q", spr.MeasurementKey(), graviton.MeasurementKey())
	}
}

// TestResolveSharesThePlatform: every spelling of a platform resolves to
// the registry's one live platform, so every collection on it reads one
// collection plan.
func TestResolveSharesThePlatform(t *testing.T) {
	reg := registry(t)
	want, err := reg.Platform("spr-sim")
	if err != nil {
		t.Fatal(err)
	}
	for _, platform := range []string{"", "spr", "spr-sim"} {
		id, err := Request{Benchmark: "branch", Platform: platform}.Resolve(reg, 0)
		if err != nil {
			t.Fatal(err)
		}
		if id.Platform != want || id.Platform.Plan() != want.Plan() {
			t.Fatalf("platform %q resolved to %p (plan %p), want the registry's %p (plan %p)", platform, id.Platform, id.Platform.Plan(), want, want.Plan())
		}
	}
}

// TestRejections classifies every rejected request: names that do not
// exist are ErrNotFound, malformed requests ErrInvalid, with the messages
// the daemon serves.
func TestRejections(t *testing.T) {
	reg := registry(t)
	errOf := func(_ string, err error) error { return err }
	branch := Request{Benchmark: "branch"}
	badRun := cat.RunConfig{Reps: 0, Threads: 1}
	badCfg := core.DefaultConfig()
	badCfg.Alpha = 0
	for _, c := range []struct {
		name string
		err  error
		kind error
		msg  string
	}{
		{"missing benchmark", errOf(Request{}.Key(reg)), ErrInvalid, `missing required field "benchmark"`},
		{"unknown benchmark", errOf(Request{Benchmark: "nope"}.Key(reg)), ErrNotFound, ""},
		{"bad run", errOf(Request{Benchmark: "branch", Run: &badRun}.Key(reg)), ErrInvalid, "cat: reps must be >= 1, got 0"},
		{"bad config", errOf(Request{Benchmark: "branch", Config: &badCfg}.Key(reg)), ErrInvalid, ""},
		{"unknown platform", errOf(Request{Benchmark: "branch", Platform: "nope"}.Key(reg)), ErrInvalid, ""},
		{"class mismatch", errOf(Request{Benchmark: "branch", Platform: "mi250x"}.Key(reg)), ErrInvalid,
			"analysis: benchmark branch drives cpu platforms, mi250x-sim is gpu"},
		{"no metric", errOf(DefineRequest{Request: branch}.Key(reg)), ErrInvalid, ""},
		{"unknown metric", errOf(DefineRequest{Request: branch, Metric: "x"}.Key(reg)), ErrNotFound, ""},
		{"unnamed signature", errOf(DefineRequest{Request: branch, Signature: &core.Signature{Coeffs: make([]float64, 5)}}.Key(reg)), ErrInvalid, ""},
		{"short signature", errOf(DefineRequest{Request: branch, Signature: &core.Signature{Name: "x"}}.Key(reg)), ErrInvalid, ""},
		{"event off the platform", errOf(ExplainRequest{Request: Request{Benchmark: "branch", Platform: "graviton"}, Event: "BR_INST_RETIRED:ALL_BRANCHES"}.Key(reg)), ErrNotFound,
			`event "BR_INST_RETIRED:ALL_BRANCHES" not among the kept events (noisy, all-zero, or unknown)`},
	} {
		err := c.err
		if !errors.Is(err, c.kind) || (c.msg != "" && err.Error() != c.msg) {
			t.Errorf("%s: got %v, want %v %q", c.name, err, c.kind, c.msg)
		}
	}
}

// TestConfigOverrideReachesAnalysis: a request's config override reaches
// the analysis stages, not only its key. On the default request's profile,
// a looser projection_tol keeps cpu-flops events the default drops, and a
// coarser alpha changes the events branch selects.
func TestConfigOverrideReachesAnalysis(t *testing.T) {
	reg := registry(t)
	ctx := context.Background()
	for _, c := range []struct {
		benchmark string
		override  func(*core.Config)
		changed   func(a *Analysis) string
	}{
		{"cpu-flops", func(cfg *core.Config) { cfg.ProjectionTol = 0.1 },
			func(a *Analysis) string { return fmt.Sprint(a.Result.Projection.Dropped) }},
		{"branch", func(cfg *core.Config) { cfg.Alpha = 0.5 },
			func(a *Analysis) string { return fmt.Sprint(a.Result.SelectedEvents) }},
	} {
		def, err := Request{Benchmark: c.benchmark}.Resolve(reg, 0)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := def.Profile(ctx)
		if err != nil {
			t.Fatal(err)
		}
		cfg := def.Bench.Config
		c.override(&cfg)
		id, err := Request{Benchmark: c.benchmark, Config: &cfg}.Resolve(reg, 0)
		if err != nil {
			t.Fatal(err)
		}
		base, err1 := def.Analyze(ctx, prof)
		got, err2 := id.Analyze(ctx, prof)
		if err := errors.Join(err1, err2); err != nil {
			t.Fatal(err)
		}
		if b, g := c.changed(base), c.changed(got); b == g {
			t.Errorf("%s with config %s: %s, as with the default config", c.benchmark, cfg, g)
		}
	}
}

// TestRunEqualsAnalyzeSet checks the served analysis — Run: resolution,
// collection, the noise profile, then core.Pipeline.AnalyzeProfile —
// against a stage-by-stage reference over the same collection: the
// one-shot noise filter, projection, the specialized QRCP and one
// least-squares definition per signature, the stages cmd/loadgen's traced
// replayer runs. The kept, filtered and discarded events, the kept vectors,
// the variabilities, the selection and every definition must agree bit for
// bit (%v renders each float64 in its shortest round-tripping form) on every
// built-in platform: branch on the CPU ones, gpu-flops on the GPU ones.
func TestRunEqualsAnalyzeSet(t *testing.T) {
	reg := registry(t)
	ctx := context.Background()
	benchmarks := map[string]string{"cpu": "branch", "gpu": "gpu-flops"}
	for _, name := range reg.Names() {
		p, err := reg.Platform(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			a, err := Run(ctx, reg, Request{Benchmark: benchmarks[p.Class], Platform: name}, 0)
			if err != nil {
				t.Fatal(err)
			}
			if a.Profile.Platform != p.Name {
				t.Fatalf("collected on %s, resolved %s", a.Profile.Platform, p.Name)
			}
			set, err := a.ID.Collect(ctx)
			if err != nil {
				t.Fatal(err)
			}
			basis, err := a.ID.Bench.BasisFor(set)
			if err != nil {
				t.Fatal(err)
			}
			cfg := a.ID.Config
			noise := core.FilterNoiseWithWorkers(set, cfg.Tau, core.MaxRNMSE, 1)
			proj, err := core.BuildXWorkers(basis, noise.Kept, noise.KeptOrder, cfg.ProjectionTol, 1)
			if err != nil {
				t.Fatal(err)
			}
			qr := core.SpecializedQRCP(proj.X, cfg.Alpha)
			var selected []string
			for _, i := range qr.Selected() {
				selected = append(selected, proj.Order[i])
			}
			got := a.Result.Noise
			for _, c := range []struct {
				what      string
				got, want any
			}{
				{"kept events", got.KeptOrder, noise.KeptOrder},
				{"kept vectors", got.Kept, noise.Kept},
				{"filtered events", got.Filtered, noise.Filtered},
				{"discarded events", got.Discarded, noise.Discarded},
				{"variabilities", got.Variabilities, noise.Variabilities},
				{"selected events", a.Result.SelectedEvents, selected},
			} {
				if g, w := fmt.Sprint(c.got), fmt.Sprint(c.want); g != w {
					t.Errorf("%s differ:\n got %.200s\nwant %.200s", c.what, g, w)
				}
			}
			xhat := proj.X.ColSlice(qr.Selected())
			for i, sig := range a.ID.Bench.Signatures {
				want, err := core.DefineMetric(xhat, selected, sig)
				if err != nil {
					t.Fatal(err)
				}
				if g, w := fmt.Sprintf("%+v", *a.Defs[i]), fmt.Sprintf("%+v", *want); g != w {
					t.Errorf("%s differs:\n got %s\nwant %s", sig.Name, g, w)
				}
			}
		})
	}
	if n := len(reg.Names()); n != 7 {
		t.Errorf("checked %d built-in platforms, want 7", n)
	}
}
