package machine

import (
	"errors"
	"math"
	"strings"
	"testing"

	"github.com/perfmetrics/eventlens/internal/fault"
	"github.com/perfmetrics/eventlens/internal/par"
)

func injectPlatform(t *testing.T, spec string) (*Platform, *Platform) {
	t.Helper()
	p, err := BuiltinPlatform("spr-sim")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p, p.WithInjector(plan)
}

func injectPoints() []Stats {
	return []Stats{
		{"dp_fma": 100, "instructions": 400, "cycles": 800},
		{"dp_add": 50, "instructions": 200, "cycles": 300},
	}
}

func sameVectors(t *testing.T, a, b map[string][]float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("vector counts differ: %d vs %d", len(a), len(b))
	}
	for name, av := range a {
		bv, ok := b[name]
		if !ok {
			t.Fatalf("event %s missing", name)
		}
		for i := range av {
			if av[i] != bv[i] {
				t.Fatalf("%s[%d]: %v vs %v", name, i, av[i], bv[i])
			}
		}
	}
}

func TestRecoverableFaultsAreInvisible(t *testing.T) {
	// The structural invariant: with retries >= depth, every transient
	// fault recovers and measurement output is byte-identical to the clean
	// run. Slow faults only add latency.
	clean, chaotic := injectPlatform(t, "seed=7,transient=0.3,slow=0.2,depth=2,retries=3")
	points := injectPoints()
	for rep := 0; rep < 2; rep++ {
		want, err := clean.Measure(points, clean.Names(), rep, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := chaotic.Measure(points, chaotic.Names(), rep, 0)
		if err != nil {
			t.Fatalf("rep %d: faulted run failed despite sufficient retries: %v", rep, err)
		}
		sameVectors(t, want, got)
	}
}

func TestExhaustedRetriesSurfaceTheFault(t *testing.T) {
	_, chaotic := injectPlatform(t, "seed=7,transient=1,depth=3,retries=0")
	group := chaotic.Plan().Groups[0]
	_, err := chaotic.MeasureGroup(chaotic.IdealCounts(injectPoints(), group), group, 0, 0, 0)
	f, ok := fault.As(err)
	if !ok {
		t.Fatalf("got %v, want *fault.Fault", err)
	}
	if f.Kind != fault.Transient || f.Coord.Site != fault.SiteMeasure {
		t.Fatalf("wrong fault surfaced: %v", f)
	}
	if !strings.Contains(err.Error(), "measure(spr-sim,g0,r0,t0)") {
		t.Fatalf("error does not name the coordinate: %v", err)
	}
}

func TestInjectedPanicIsContained(t *testing.T) {
	_, chaotic := injectPlatform(t, "seed=7,panic=1")
	// Measure fans groups out through par.ForErr, so the injected panic
	// must come back as a coordinate-carrying error, not crash the test.
	_, err := chaotic.Measure(injectPoints(), chaotic.Names(), 0, 0)
	var pe *par.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want *par.PanicError", err)
	}
	f, ok := fault.As(err)
	if !ok || f.Kind != fault.Panic {
		t.Fatalf("panic error does not carry the fault: %v", err)
	}
	if f.Coord.Name != "spr-sim" {
		t.Fatalf("fault names platform %q, want spr-sim", f.Coord.Name)
	}
}

func TestCorruptionMutatesValues(t *testing.T) {
	clean, chaotic := injectPlatform(t, "seed=7,corrupt=1")
	points := injectPoints()
	want, err := clean.Measure(points, clean.Names(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := chaotic.Measure(points, chaotic.Names(), 0, 0)
	if err != nil {
		t.Fatalf("corruption must not fail the read: %v", err)
	}
	mutated := 0
	for name, vec := range got {
		for i, v := range vec {
			if math.IsNaN(v) || math.IsInf(v, 0) || v != want[name][i] {
				mutated++
			}
		}
	}
	if mutated == 0 {
		t.Fatal("corrupt=1 mutated nothing")
	}
	// And deterministically so.
	again, err := chaotic.Measure(points, chaotic.Names(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, vec := range got {
		for i, v := range vec {
			w := again[name][i]
			if v != w && !(math.IsNaN(v) && math.IsNaN(w)) {
				t.Fatalf("corruption differs across runs at %s[%d]", name, i)
			}
		}
	}
}

func TestWithInjectorLeavesReceiverClean(t *testing.T) {
	p, chaotic := injectPlatform(t, "seed=7,transient=1,retries=0")
	if p.Inject != nil {
		t.Fatal("WithInjector mutated the receiver")
	}
	if chaotic.Inject == nil {
		t.Fatal("copy lost the injector")
	}
	if _, err := p.Measure(injectPoints(), p.Names(), 0, 0); err != nil {
		t.Fatalf("original platform faulted: %v", err)
	}
}
