package machine

import (
	"strings"
	"testing"
)

// Deeper catalog behaviour tests, complementing the structural checks in
// machine_test.go.

func TestZen4Catalog(t *testing.T) {
	p, err := BuiltinPlatform("zen4-sim")
	if err != nil {
		t.Fatal(err)
	}
	// Branch semantics: Zen events mirror the SPR responses under new names.
	stats := Stats{KeyBrCR: 10, KeyBrTaken: 6, KeyBrDirect: 2, KeyBrMisp: 1}
	cases := map[string]float64{
		"EX_RET_COND":       10,
		"EX_RET_COND_TAKEN": 6,
		"EX_RET_BRN":        12,
		"EX_RET_BRN_TKN":    8,
		"EX_RET_BRN_MISP":   1,
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
	// Cache fills respond to the right levels.
	def, _ := p.Lookup("LS_REFILLS_FROM_SYS:LS_MABRESP_LCL_L2")
	if got := def.Count(Stats{KeyL2Hit: 7}); got != 7 {
		t.Fatalf("L2 refill response = %v", got)
	}
	// MMX legacy events are dead on these benchmarks.
	dead, _ := p.Lookup("RETIRED_MMX_FP_INSTRUCTIONS:ALL")
	if dead.Count(Stats{KeyInstr: 100}) != 0 {
		t.Fatalf("legacy event should read zero")
	}
}

func TestMI250XAggregates(t *testing.T) {
	p, err := BuiltinPlatform("mi250x-sim")
	if err != nil {
		t.Fatal(err)
	}
	def, ok := p.Lookup("rocm:::SQ_INSTS_VALU:device=0")
	if !ok {
		t.Fatalf("VALU aggregate missing")
	}
	if got := def.Count(Stats{KeyGPUValuAll: 42}); got != 42 {
		t.Fatalf("aggregate = %v", got)
	}
	waves, _ := p.Lookup("rocm:::SQ_WAVES:device=0")
	if waves.RelNoise != 0 {
		t.Fatalf("wave counter should be deterministic")
	}
	cycles, _ := p.Lookup("rocm:::GRBM_COUNT:device=0")
	if cycles.RelNoise == 0 {
		t.Fatalf("free-running clock should be noisy")
	}
}

func TestMI250XFillerNoiseIsNamed(t *testing.T) {
	// Filler noise derives from the event name, so two different channels
	// of the same family have different noise levels but each is stable.
	p, err := BuiltinPlatform("mi250x-sim")
	if err != nil {
		t.Fatal(err)
	}
	a, okA := p.Lookup("rocm:::TCC_HIT[0]:device=0")
	b, okB := p.Lookup("rocm:::TCC_HIT[1]:device=0")
	if !okA || !okB {
		t.Fatalf("TCC channel events missing")
	}
	if a.RelNoise == b.RelNoise {
		t.Fatalf("per-channel noise should differ (name-derived)")
	}
	p2, _ := BuiltinPlatform("mi250x-sim")
	a2, _ := p2.Lookup("rocm:::TCC_HIT[0]:device=0")
	if a.RelNoise != a2.RelNoise {
		t.Fatalf("noise level not stable across constructions")
	}
}

func TestSPRFillerFamiliesRespond(t *testing.T) {
	p, err := BuiltinPlatform("spr-sim")
	if err != nil {
		t.Fatal(err)
	}
	// A stall event responds to cycles and cache misses.
	def, ok := p.Lookup("CYCLE_ACTIVITY:STALLS_L2_MISS")
	if !ok {
		t.Fatalf("stall event missing")
	}
	if def.Count(Stats{KeyCycles: 100, KeyL1Miss: 10, KeyL2Miss: 5}) <= 0 {
		t.Fatalf("stall event should respond to cycle/cache activity")
	}
	// TLB walk events respond to the TLB model's stats.
	walk, ok := p.Lookup("DTLB_LOAD_MISSES:WALK_COMPLETED")
	if !ok {
		t.Fatalf("walk event missing")
	}
	if walk.Count(Stats{KeyWalks: 3, KeyDTLBMiss: 9}) <= 0 {
		t.Fatalf("walk event should respond to TLB stats")
	}
	// Dead families read zero everywhere.
	dead, ok := p.Lookup("ITLB_MISSES:MISS_CAUSES_A_WALK")
	if !ok {
		t.Fatalf("ITLB event missing")
	}
	if dead.Count(Stats{KeyInstr: 1000, KeyCycles: 1000}) != 0 {
		t.Fatalf("ITLB should be dead on these benchmarks")
	}
}

func TestSyntheticCatalogEmbedsAllSignal(t *testing.T) {
	p, err := SyntheticCatalog(1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	base, _ := BuiltinPlatform("spr-sim")
	for _, name := range base.Names() {
		if _, ok := p.Lookup(name); !ok {
			t.Fatalf("real event %s missing from synthetic catalog", name)
		}
	}
	// Filler names do not collide with the base catalog.
	synCount := 0
	for _, name := range p.Names() {
		if strings.HasPrefix(name, "SYN_") {
			synCount++
		}
	}
	if synCount != 1000 {
		t.Fatalf("filler count = %d want 1000", synCount)
	}
}

// TestMeasureAllMatchesMeasure: measuring the whole catalog reads a
// deterministic event exactly as measuring it alone does.
func TestMeasureAllMatchesMeasure(t *testing.T) {
	p, err := BuiltinPlatform("zen4-sim")
	if err != nil {
		t.Fatal(err)
	}
	stats := []Stats{{KeyBrCR: 10, KeyBrTaken: 5}}
	all, err := p.Measure(stats, p.Names(), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	one, err := p.Measure(stats, []string{"EX_RET_COND"}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic event: identical regardless of grouping.
	if all["EX_RET_COND"][0] != one["EX_RET_COND"][0] {
		t.Fatalf("deterministic event differs between the whole catalog and a group of one")
	}
}
