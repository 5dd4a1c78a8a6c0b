package machine

import (
	"math"
	"strings"
	"testing"

	"github.com/perfmetrics/eventlens/internal/platdef"
)

// testPlatform builds a live platform over a valid definition without
// FromDef's stat-key check, so tests can respond to keys no simulator
// populates.
func testPlatform(t *testing.T, name string, counters int, events ...EventDef) *Platform {
	t.Helper()
	def := &platdef.Platform{Name: name, Class: "cpu", Counters: counters, Events: events}
	if err := def.Validate(); err != nil {
		t.Fatal(err)
	}
	return newPlatform(def)
}

func TestCatalogLookup(t *testing.T) {
	p := testPlatform(t, "t", 1, EventDef{Name: "B"}, EventDef{Name: "A"})
	if def, ok := p.Lookup("A"); !ok || def.Name != "A" {
		t.Fatalf("Lookup(A) = %+v, %v", def, ok)
	}
	if _, ok := p.Lookup("Z"); ok {
		t.Fatalf("Lookup(Z) should fail")
	}
	if names := p.Names(); len(names) != 2 || names[0] != "B" || names[1] != "A" {
		t.Fatalf("Names not in catalog order: %v", names)
	}
}

func TestLinearResponse(t *testing.T) {
	e := EventDef{Name: "E", Respond: []platdef.Term{{Key: "a", Coeff: 2}, {Key: "b", Coeff: -1}}}
	if got := e.Count(Stats{"a": 3, "b": 4}); got != 2 {
		t.Fatalf("linear response = %v want 2", got)
	}
	if got := (EventDef{Name: "Z"}).Count(Stats{"a": 1}); got != 0 {
		t.Fatalf("nil-terms response should be 0")
	}
}

func TestGroupsPartition(t *testing.T) {
	p := &Platform{Platform: &platdef.Platform{Name: "t", Counters: 3}}
	groups := p.Groups([]string{"a", "b", "c", "d", "e", "f", "g"})
	if len(groups) != 3 || len(groups[0]) != 3 || len(groups[2]) != 1 {
		t.Fatalf("groups = %v", groups)
	}
}

// measurePlatform is a two-counter platform with an exact, a noisy and an
// all-zero event over the stat key "x".
func measurePlatform(t *testing.T) *Platform {
	t.Helper()
	return testPlatform(t, "test-sim", 2,
		EventDef{Name: "EXACT", Respond: []platdef.Term{{Key: "x", Coeff: 2}}},
		EventDef{Name: "NOISY", RelNoise: 0.1, Respond: []platdef.Term{{Key: "x", Coeff: 1}}},
		EventDef{Name: "ZERO"},
	)
}

func TestMeasureExactEventIsDeterministic(t *testing.T) {
	p := measurePlatform(t)
	points := []Stats{{"x": 10}, {"x": 20}}
	a, err := p.Measure(points, []string{"EXACT"}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Measure(points, []string{"EXACT"}, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a["EXACT"][0] != 20 || a["EXACT"][1] != 40 {
		t.Fatalf("exact measurement wrong: %v", a["EXACT"])
	}
	for i := range a["EXACT"] {
		if a["EXACT"][i] != b["EXACT"][i] {
			t.Fatalf("noise-free event varies across reps")
		}
	}
}

func TestMeasureNoisyEventVariesAcrossReps(t *testing.T) {
	p := measurePlatform(t)
	points := []Stats{{"x": 1000}}
	a, _ := p.Measure(points, []string{"NOISY"}, 0, 0)
	b, _ := p.Measure(points, []string{"NOISY"}, 1, 0)
	if a["NOISY"][0] == b["NOISY"][0] {
		t.Fatalf("noisy event identical across reps")
	}
	// Same coordinates reproduce identical values.
	a2, _ := p.Measure(points, []string{"NOISY"}, 0, 0)
	if a["NOISY"][0] != a2["NOISY"][0] {
		t.Fatalf("noise not deterministic for equal coordinates")
	}
}

func TestMeasureNoisyEventVariesAcrossThreads(t *testing.T) {
	p := measurePlatform(t)
	points := []Stats{{"x": 1000}}
	a, _ := p.Measure(points, []string{"NOISY"}, 0, 0)
	b, _ := p.Measure(points, []string{"NOISY"}, 0, 1)
	if a["NOISY"][0] == b["NOISY"][0] {
		t.Fatalf("noisy event identical across threads")
	}
}

func TestMeasureClampsNegative(t *testing.T) {
	p := testPlatform(t, "clamp", 1,
		EventDef{Name: "N", RelNoise: 100, Respond: []platdef.Term{{Key: "x", Coeff: 1}}})
	points := make([]Stats, 64)
	for i := range points {
		points[i] = Stats{"x": 1}
	}
	out, err := p.Measure(points, []string{"N"}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out["N"] {
		if v < 0 {
			t.Fatalf("negative counter value %v", v)
		}
	}
}

func TestMeasureUnknownEvent(t *testing.T) {
	p := measurePlatform(t)
	if _, err := p.Measure([]Stats{{}}, []string{"NOPE"}, 0, 0); err == nil {
		t.Fatalf("unknown event should error")
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := newRNG(12345)
	n := 20000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.03 {
		t.Fatalf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance = %v", variance)
	}
}

func TestHashSeedDistinct(t *testing.T) {
	a := valueSeed(seedPrefix("p", "x", 0), 1, 2, 0)
	b := valueSeed(seedPrefix("p", "x", 0), 2, 1, 0)
	c := valueSeed(seedPrefix("p", "y", 0), 1, 2, 0)
	if a == b || a == c {
		t.Fatalf("hash collisions across distinct coordinates")
	}
}

func TestSpreadNoiseInRange(t *testing.T) {
	for i := uint64(0); i < 200; i++ {
		v := spreadNoise(nameHash(string(rune('a'+i%26))+string(rune(i))), 1e-6, 1e0)
		if v < 1e-6 || v > 1e0 {
			t.Fatalf("spreadNoise out of range: %v", v)
		}
	}
}

func TestSapphireRapidsCatalog(t *testing.T) {
	p, err := BuiltinPlatform("spr-sim")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events) < 250 {
		t.Fatalf("SPR catalog too small: %d events", len(p.Events))
	}
	// The 8 pure FP events must exist and count FMA twice.
	def, ok := p.Lookup("FP_ARITH_INST_RETIRED:256B_PACKED_DOUBLE")
	if !ok {
		t.Fatalf("FP_ARITH event missing")
	}
	got := def.Count(Stats{FPKey("dp", "256", false): 10, FPKey("dp", "256", true): 5})
	if got != 20 { // 10 non-FMA + 2*5 FMA
		t.Fatalf("FMA double-count broken: %v want 20", got)
	}
	if def.RelNoise != 0 {
		t.Fatalf("FP events must be noise-free")
	}
	// No executed-branches event may exist (Table VII depends on this).
	for _, name := range p.Names() {
		if strings.Contains(name, "BR_INST_EXEC") {
			t.Fatalf("SPR catalog must not expose executed-branch events")
		}
	}
}

func TestSapphireRapidsBranchEvents(t *testing.T) {
	p, err := BuiltinPlatform("spr-sim")
	if err != nil {
		t.Fatal(err)
	}
	stats := Stats{KeyBrCR: 100, KeyBrTaken: 60, KeyBrDirect: 10, KeyBrMisp: 5}
	cases := map[string]float64{
		"BR_INST_RETIRED:COND":         100,
		"BR_INST_RETIRED:COND_TAKEN":   60,
		"BR_INST_RETIRED:COND_NTAKEN":  40,
		"BR_INST_RETIRED:ALL_BRANCHES": 110,
		"BR_MISP_RETIRED":              5,
	}
	for name, want := range cases {
		def, ok := p.Lookup(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		if got := def.Count(stats); got != want {
			t.Errorf("%s = %v want %v", name, got, want)
		}
	}
}

func TestMI250XCatalog(t *testing.T) {
	p, err := BuiltinPlatform("mi250x-sim")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events) < 900 {
		t.Fatalf("MI250X catalog too small: %d events", len(p.Events))
	}
	// ADD must count subs too.
	def, ok := p.Lookup("rocm:::SQ_INSTS_VALU_ADD_F16:device=0")
	if !ok {
		t.Fatalf("VALU ADD event missing")
	}
	got := def.Count(Stats{GPUValuKey("add", "f16"): 7, GPUValuKey("sub", "f16"): 3})
	if got != 10 {
		t.Fatalf("ADD+SUB merge broken: %v want 10", got)
	}
	// Idle devices read zero.
	idle, ok := p.Lookup("rocm:::SQ_INSTS_VALU_ADD_F16:device=3")
	if !ok {
		t.Fatalf("idle-device event missing")
	}
	if idle.Count(Stats{GPUValuKey("add", "f16"): 7}) != 0 {
		t.Fatalf("idle device must read zero")
	}
}

func TestSPRUsesConstraintScheduler(t *testing.T) {
	p, err := BuiltinPlatform("spr-sim")
	if err != nil {
		t.Fatal(err)
	}
	// Two fixed-counter events plus eight programmable events fit a single
	// multiplexing round on the 8-counter SPR.
	names := []string{
		"INST_RETIRED:ANY", "CPU_CLK_UNHALTED:THREAD",
		"FP_ARITH_INST_RETIRED:SCALAR_SINGLE", "FP_ARITH_INST_RETIRED:128B_PACKED_SINGLE",
		"FP_ARITH_INST_RETIRED:256B_PACKED_SINGLE", "FP_ARITH_INST_RETIRED:512B_PACKED_SINGLE",
		"FP_ARITH_INST_RETIRED:SCALAR_DOUBLE", "FP_ARITH_INST_RETIRED:128B_PACKED_DOUBLE",
		"FP_ARITH_INST_RETIRED:256B_PACKED_DOUBLE", "FP_ARITH_INST_RETIRED:512B_PACKED_DOUBLE",
	}
	groups := p.Groups(names)
	if len(groups) != 1 {
		t.Fatalf("fixed counters should absorb the architectural events: %d rounds %v", len(groups), groups)
	}
	// All names scheduled exactly once.
	seen := map[string]bool{}
	for _, g := range groups {
		for _, n := range g {
			if seen[n] {
				t.Fatalf("event %s scheduled twice", n)
			}
			seen[n] = true
		}
	}
	if len(seen) != len(names) {
		t.Fatalf("scheduled %d of %d events", len(seen), len(names))
	}
}

func TestPlatformsHaveDistinctNoiseStreams(t *testing.T) {
	spr, _ := BuiltinPlatform("spr-sim")
	stats := []Stats{{KeyL1Hit: 1000}}
	a, _ := spr.Measure(stats, []string{"MEM_LOAD_RETIRED:L1_HIT"}, 0, 0)
	other := *spr.Platform
	other.Name = "other"
	spr2, err := FromDef(&other)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := spr2.Measure(stats, []string{"MEM_LOAD_RETIRED:L1_HIT"}, 0, 0)
	if a["MEM_LOAD_RETIRED:L1_HIT"][0] == b["MEM_LOAD_RETIRED:L1_HIT"][0] {
		t.Fatalf("platform name must participate in the noise seed")
	}
}
