package fault

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

func TestSpecStringParseRoundTrip(t *testing.T) {
	specs := []Spec{
		{Seed: 7},
		{Seed: 42, Depth: 3, Retries: 5},
		{Seed: 0, Retries: 0},
	}
	specs[0].rates[Transient] = 0.05
	specs[1].rates[Panic] = 0.01
	specs[1].rates[Corrupt] = 0.1
	specs[2].rates[HTTP503] = 1
	for _, s := range specs {
		s = s.withDefaults()
		text := s.String()
		back, err := ParseSpec(text)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", text, err)
		}
		if got := back.String(); got != text {
			t.Fatalf("round trip: %q -> %q", text, got)
		}
	}
}

func TestSpecStringCanonical(t *testing.T) {
	// Equivalent spellings must render identically: cache keys depend on it.
	a, err := ParseSpec("transient=0.05,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseSpec("seed=7, transient=0.05")
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("canonical forms differ: %q vs %q", a, b)
	}
	if want := "seed=7,transient=0.05"; a.String() != want {
		t.Fatalf("canonical form = %q, want %q", a, want)
	}
	// Defaults are omitted; non-defaults are rendered.
	c, err := ParseSpec("seed=1,transient=1,retries=0")
	if err != nil {
		t.Fatal(err)
	}
	if want := "seed=1,transient=1,retries=0"; c.String() != want {
		t.Fatalf("retries=0 form = %q, want %q", c, want)
	}
}

func TestParseSpecRejects(t *testing.T) {
	for _, text := range []string{
		"",                 // injection off is the absence of a spec
		"seed",             // not key=value
		"seed=x",           // malformed int
		"bogus=1",          // unknown key
		"transient=1.5",    // rate out of range
		"transient=-0.1",   // rate out of range
		"depth=0",          // depth must be >= 1
		"retries=-1",       // retries must be >= 0
		"seed=1,panic=nan", // malformed float
	} {
		if _, err := ParseSpec(text); err == nil {
			t.Errorf("ParseSpec(%q) accepted", text)
		}
	}
}

func TestPlanDeterministicAndOrderIndependent(t *testing.T) {
	spec, err := ParseSpec("seed=99,panic=0.05,corrupt=0.1,transient=0.2,slow=0.1")
	if err != nil {
		t.Fatal(err)
	}
	p, q := NewPlan(spec), NewPlan(spec)
	coords := MeasureCoords("spr", 6, 4, 2)
	// Same seed, fresh plan, reversed query order: identical decisions.
	for i := len(coords) - 1; i >= 0; i-- {
		for attempt := 0; attempt < 4; attempt++ {
			if p.At(coords[i], attempt) != q.At(coords[i], attempt) {
				t.Fatalf("plans disagree at %s#%d", coords[i], attempt)
			}
			// Re-querying never changes the answer.
			if p.At(coords[i], attempt) != p.At(coords[i], attempt) {
				t.Fatalf("plan not idempotent at %s#%d", coords[i], attempt)
			}
		}
	}
	if NewPlan(Spec{Seed: 100, rates: spec.rates}).DescribeSchedule(coords, 2) == p.DescribeSchedule(coords, 2) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestScheduleByteIdentical(t *testing.T) {
	spec, err := ParseSpec("seed=5,transient=0.3,slow=0.1")
	if err != nil {
		t.Fatal(err)
	}
	coords := MeasureCoords("mi250x", 8, 5, 4)
	a := NewPlan(spec).DescribeSchedule(coords, 3)
	b := NewPlan(spec).DescribeSchedule(coords, 3)
	if a != b {
		t.Fatal("schedules differ across plan instances")
	}
	if !strings.Contains(a, "schedule:") {
		t.Fatalf("schedule missing tally line:\n%s", a)
	}
}

func TestTransientDepthClears(t *testing.T) {
	// With transient=1 every coordinate faults; the fault must persist for
	// depth attempts in [1, Depth] and then clear for good.
	spec, err := ParseSpec("seed=3,transient=1,depth=3")
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlan(spec)
	sawDepth := map[int]bool{}
	for _, c := range MeasureCoords("spr", 10, 3, 1) {
		depth := 0
		for attempt := 0; attempt < 10; attempt++ {
			k := p.At(c, attempt)
			if k == Transient {
				if attempt != depth {
					t.Fatalf("%s: fault re-fired at attempt %d after clearing", c, attempt)
				}
				depth++
			}
		}
		if depth < 1 || depth > 3 {
			t.Fatalf("%s: depth %d outside [1, 3]", c, depth)
		}
		sawDepth[depth] = true
	}
	if len(sawDepth) < 2 {
		t.Fatalf("all coordinates drew the same depth: %v", sawDepth)
	}
}

func TestPersistentKindsNeverClear(t *testing.T) {
	spec, err := ParseSpec("seed=3,corrupt=1")
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlan(spec)
	c := Coord{Site: SiteMeasure, Name: "spr"}
	for attempt := 0; attempt < 8; attempt++ {
		if p.At(c, attempt) != Corrupt {
			t.Fatalf("corrupt cleared at attempt %d; corruption is not retryable", attempt)
		}
	}
}

func TestSiteKindGating(t *testing.T) {
	// HTTP kinds never fire at measurement sites and vice versa, even at
	// rate 1.
	spec, err := ParseSpec("seed=1,http503=1,timeout=1")
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlan(spec)
	if k := p.At(Coord{Site: SiteMeasure, Name: "spr"}, 0); k != None {
		t.Fatalf("HTTP kind fired at a measure site: %s", k)
	}
	if k := p.At(Coord{Site: SiteHTTP, Name: "POST /v1/analyze"}, 0); !k.Retryable() {
		t.Fatalf("want a retryable HTTP kind, got %s", k)
	}
	// HTTP kinds never fire at the peer-forwarding seam either.
	if k := p.At(Coord{Site: SitePeer, Name: "http://peer:1"}, 0); k != None {
		t.Fatalf("HTTP kind fired at a peer site: %s", k)
	}
}

// TestSitePeerKinds covers the replica-forwarding seam: Transient (dead
// peer) fires at rate 1, clears past its depth like every retryable kind,
// and renders a compact replayable coordinate.
func TestSitePeerKinds(t *testing.T) {
	spec, err := ParseSpec("seed=3,transient=1,depth=1")
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlan(spec)
	c := Coord{Site: SitePeer, Name: "http://127.0.0.1:7002", Rep: 4}
	if k := p.At(c, 0); k != Transient {
		t.Fatalf("peer fault = %s, want transient", k)
	}
	if k := p.At(c, 1); k != None {
		t.Fatalf("peer fault past depth = %s, want none", k)
	}
	f := &Fault{Kind: Transient, Coord: c}
	if want := "peer(http://127.0.0.1:7002,n4)"; !strings.Contains(f.Error(), want) {
		t.Fatalf("error %q missing %q", f.Error(), want)
	}
}

func TestCorruptValueMutations(t *testing.T) {
	p := NewPlan(Spec{Seed: 11})
	c := Coord{Site: SiteMeasure, Name: "spr", Group: 2}
	var nan, inf, outlier, clean int
	for pt := 0; pt < 400; pt++ {
		v, mutated := p.CorruptValue(c, "EV", pt, 100)
		v2, mutated2 := p.CorruptValue(c, "EV", pt, 100)
		if mutated != mutated2 || (mutated && !(math.IsNaN(v) && math.IsNaN(v2)) && v != v2) {
			t.Fatalf("corruption not deterministic at point %d", pt)
		}
		switch {
		case !mutated:
			clean++
		case math.IsNaN(v):
			nan++
		case math.IsInf(v, 0):
			inf++
		default:
			outlier++
			if v < 1e6 {
				t.Fatalf("outlier %g not wild", v)
			}
		}
	}
	if clean == 0 || nan == 0 || inf == 0 || outlier == 0 {
		t.Fatalf("mutation mix degenerate: clean=%d nan=%d inf=%d outlier=%d", clean, nan, inf, outlier)
	}
}

func TestFaultErrorAndAs(t *testing.T) {
	f := &Fault{Kind: Transient, Coord: Coord{Site: SiteMeasure, Name: "spr", Group: 3, Rep: 1, Thread: 2}, Attempt: 1}
	msg := f.Error()
	for _, want := range []string{"transient", "measure(spr,g3,r1,t2)", "attempt 1"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q missing %q", msg, want)
		}
	}
	wrapped := fmt.Errorf("outer: %w", f)
	got, ok := As(wrapped)
	if !ok || got != f {
		t.Fatal("As failed through a wrap")
	}
	if !IsTransient(wrapped) {
		t.Fatal("wrapped transient fault not recognized")
	}
	if IsTransient(errors.New("real bug")) {
		t.Fatal("ordinary error classified transient")
	}
	if IsTransient(&Fault{Kind: Panic}) {
		t.Fatal("panic fault classified transient")
	}
}

func TestBackoffDelay(t *testing.T) {
	base, max := 10*time.Millisecond, 200*time.Millisecond
	seed := SeedFor("job", "job-1")
	prevCeil := time.Duration(0)
	for attempt := 0; attempt < 10; attempt++ {
		d := BackoffDelay(base, max, seed, attempt)
		if d != BackoffDelay(base, max, seed, attempt) {
			t.Fatalf("attempt %d: backoff not deterministic", attempt)
		}
		if d > max {
			t.Fatalf("attempt %d: delay %v exceeds max %v", attempt, d, max)
		}
		if d < base/2 {
			t.Fatalf("attempt %d: delay %v below jittered floor", attempt, d)
		}
		// The un-jittered ceiling doubles until it saturates.
		ceil := base << attempt
		if ceil > max || ceil < base {
			ceil = max
		}
		if ceil < prevCeil {
			t.Fatal("ceiling not monotone")
		}
		prevCeil = ceil
	}
	if BackoffDelay(0, max, seed, 3) != 0 {
		t.Fatal("zero base must disable backoff")
	}
	if SeedFor("a", "b") == SeedFor("ab", "") {
		t.Fatal("SeedFor collides on concatenation")
	}
}

func TestMeasureCoordsOrder(t *testing.T) {
	coords := MeasureCoords("p", 2, 2, 2)
	if len(coords) != 8 {
		t.Fatalf("len = %d, want 8", len(coords))
	}
	// Batch collector order: rep-major, then thread, then group.
	want := []string{
		"measure(p,g0,r0,t0)", "measure(p,g1,r0,t0)",
		"measure(p,g0,r0,t1)", "measure(p,g1,r0,t1)",
		"measure(p,g0,r1,t0)", "measure(p,g1,r1,t0)",
		"measure(p,g0,r1,t1)", "measure(p,g1,r1,t1)",
	}
	for i, c := range coords {
		if c.String() != want[i] {
			t.Fatalf("coords[%d] = %s, want %s", i, c, want[i])
		}
	}
}
