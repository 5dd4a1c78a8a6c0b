package cachesim

import (
	"math"
	"testing"
	"testing/quick"
)

func mustHierarchy(t *testing.T, cfgs []LevelConfig) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// tinyConfig returns a miniature hierarchy for fast unit tests.
func tinyConfig() []LevelConfig {
	return []LevelConfig{
		{Name: "L1", Size: 1 << 10, Ways: 2, LineSize: 64},
		{Name: "L2", Size: 4 << 10, Ways: 4, LineSize: 64},
		{Name: "L3", Size: 16 << 10, Ways: 4, LineSize: 64},
	}
}

// contains reports whether the line holding addr is present at level i of
// h, without touching LRU state or counters.
func contains(h *Hierarchy, i int, addr uint64) bool {
	line := addr >> h.lineShift
	for _, tag := range h.levels[i].sets[line%h.levels[i].nsets] {
		if tag == line {
			return true
		}
	}
	return false
}

func TestLevelConfigGeometry(t *testing.T) {
	c := LevelConfig{Name: "L1", Size: 32 << 10, Ways: 8, LineSize: 64}
	if c.Lines() != 512 || c.Sets() != 64 {
		t.Fatalf("Lines=%d Sets=%d want 512, 64", c.Lines(), c.Sets())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := LevelConfig{Name: "x", Size: 100, Ways: 3, LineSize: 64}
	if err := bad.Validate(); err == nil {
		t.Fatalf("expected validation error for non-divisible size")
	}
}

func TestNewHierarchyRejectsBadConfigs(t *testing.T) {
	if _, err := NewHierarchy(nil); err == nil {
		t.Fatalf("empty config should fail")
	}
	if _, err := NewHierarchy([]LevelConfig{{Name: "L1", Size: 1 << 10, Ways: 2, LineSize: 48}}); err == nil {
		t.Fatalf("non-power-of-two line should fail")
	}
	if _, err := NewHierarchy([]LevelConfig{
		{Name: "L1", Size: 4 << 10, Ways: 2, LineSize: 64},
		{Name: "L2", Size: 1 << 10, Ways: 2, LineSize: 64},
	}); err == nil {
		t.Fatalf("shrinking hierarchy should fail")
	}
}

func TestAccessHitAfterFill(t *testing.T) {
	h := mustHierarchy(t, tinyConfig())
	if lvl := h.Access(0x1000); lvl != h.NumLevels() {
		t.Fatalf("cold access should miss to memory, got level %d", lvl)
	}
	if lvl := h.Access(0x1000); lvl != 0 {
		t.Fatalf("second access should hit L1, got level %d", lvl)
	}
	if lvl := h.Access(0x1004); lvl != 0 {
		t.Fatalf("same-line access should hit L1, got level %d", lvl)
	}
}

func TestLRUEviction(t *testing.T) {
	// Tiny L1: 2 ways, 8 sets. Three lines mapping to one set evict LRU.
	h := mustHierarchy(t, tinyConfig())
	setsL1 := uint64(tinyConfig()[0].Sets())
	lineSz := uint64(64)
	a := uint64(0)
	b := a + setsL1*lineSz   // same set as a
	c := a + 2*setsL1*lineSz // same set again
	h.Access(a)
	h.Access(b)
	h.Access(c) // evicts a from L1
	if contains(h, 0, a) {
		t.Fatalf("LRU victim should have been evicted from L1")
	}
	if !contains(h, 0, b) || !contains(h, 0, c) {
		t.Fatalf("recently used lines must stay resident")
	}
	// a still lives in L2 (inclusive), so it hits there.
	if lvl := h.Access(a); lvl != 1 {
		t.Fatalf("evicted line should hit L2, got level %d", lvl)
	}
}

func TestInclusiveBackInvalidation(t *testing.T) {
	// Fill the last level's set beyond capacity and check that L3 evictions
	// purge upper levels too.
	cfgs := []LevelConfig{
		{Name: "L1", Size: 2 << 10, Ways: 8, LineSize: 64},
		{Name: "L2", Size: 2 << 10, Ways: 8, LineSize: 64},
		{Name: "L3", Size: 2 << 10, Ways: 8, LineSize: 64},
	}
	h := mustHierarchy(t, cfgs)
	sets := uint64(cfgs[2].Sets())
	// 9 lines in one L3 set: the first must be back-invalidated everywhere.
	for i := uint64(0); i < 9; i++ {
		h.Access(i * sets * 64)
	}
	if contains(h, 0, 0) || contains(h, 1, 0) || contains(h, 2, 0) {
		t.Fatalf("back-invalidation failed: line 0 still resident somewhere")
	}
}

func TestResetCountersPreservesContents(t *testing.T) {
	h := mustHierarchy(t, tinyConfig())
	h.Access(0x40)
	h.ResetCounters()
	if h.Accesses != 0 {
		t.Fatalf("counters not reset")
	}
	if lvl := h.Access(0x40); lvl != 0 {
		t.Fatalf("cache contents should survive counter reset, got level %d", lvl)
	}
}

func TestBuildChainSingleCycle(t *testing.T) {
	cfg := ChaseConfig{Elements: 64, StrideBytes: 64, Seed: 9}
	chain, err := BuildChain(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 64 {
		t.Fatalf("chain length %d", len(chain))
	}
	seen := map[uint64]bool{}
	for _, a := range chain {
		if seen[a] {
			t.Fatalf("address visited twice: %#x", a)
		}
		seen[a] = true
	}
}

func TestBuildChainDeterministic(t *testing.T) {
	cfg := ChaseConfig{Elements: 32, StrideBytes: 64, Seed: 5}
	a, _ := BuildChain(cfg)
	b, _ := BuildChain(cfg)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("chain not deterministic at %d", i)
		}
	}
}

func TestBuildChainValidation(t *testing.T) {
	if _, err := BuildChain(ChaseConfig{Elements: 1, StrideBytes: 64}); err == nil {
		t.Fatalf("1-element chain should fail")
	}
	if _, err := BuildChain(ChaseConfig{Elements: 8, StrideBytes: 0}); err == nil {
		t.Fatalf("zero stride should fail")
	}
}

func TestChaseFitsL1AllHits(t *testing.T) {
	cfgs := tinyConfig() // L1 = 16 lines
	res, err := RunSweepPointTLB(cfgs, nil, SweepPoint{Region: RegionL1, StrideBytes: 64, Elements: 8}, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.HitRate[0] != 1 {
		t.Fatalf("L1-resident chase hit rate = %v want 1", res.HitRate[0])
	}
	if res.MissRate[0] != 0 || res.MemRate != 0 {
		t.Fatalf("L1-resident chase should never miss: %+v", res)
	}
}

func TestChaseThrashesL1HitsL2(t *testing.T) {
	// Tiny L1 holds 16 lines; 32 elements thrash it completely but fit L2
	// (64 lines), giving the exact (L1DM=1, L2DH=1) staircase step.
	res, err := RunSweepPointTLB(tinyConfig(), nil, SweepPoint{Region: RegionL2, StrideBytes: 64, Elements: 32}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.MissRate[0] != 1 {
		t.Fatalf("L1 miss rate = %v want 1", res.MissRate[0])
	}
	if res.HitRate[1] != 1 {
		t.Fatalf("L2 hit rate = %v want 1", res.HitRate[1])
	}
}

func TestChaseMemoryRegion(t *testing.T) {
	// 8x the last level: every access goes to memory.
	last := tinyConfig()[2]
	res, err := RunSweepPointTLB(tinyConfig(), nil, SweepPoint{Region: RegionMem, StrideBytes: 64, Elements: 8 * last.Lines()}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.MemRate != 1 {
		t.Fatalf("memory rate = %v want 1", res.MemRate)
	}
	for i, hr := range res.HitRate {
		if hr != 0 {
			t.Fatalf("level %d hit rate = %v want 0", i, hr)
		}
	}
}

func TestWideStrideHalvesEffectiveCapacity(t *testing.T) {
	// With stride 128B on 64B lines only every other set is usable, so a
	// chain of just over half the L1 lines already thrashes.
	cfgs := tinyConfig() // L1: 16 lines, 8 sets, 2 ways
	n := 12              // fits 16 lines at stride 64, thrashes 8 effective at 128
	res64, err := RunSweepPointTLB(cfgs, nil, SweepPoint{StrideBytes: 64, Elements: n}, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	res128, err := RunSweepPointTLB(cfgs, nil, SweepPoint{StrideBytes: 128, Elements: n}, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res64.HitRate[0] != 1 {
		t.Fatalf("stride-64 chase should fit L1, hit rate %v", res64.HitRate[0])
	}
	if res128.HitRate[0] != 0 {
		t.Fatalf("stride-128 chase should thrash L1, hit rate %v", res128.HitRate[0])
	}
}

func TestBuildSweepRegions(t *testing.T) {
	points := BuildSweep(SPRLikeConfig(), []int{64, 128})
	if len(points) == 0 {
		t.Fatalf("empty sweep")
	}
	regions := map[string]int{}
	for _, p := range points {
		regions[p.Region.String()]++
		if p.Elements < 2 {
			t.Fatalf("degenerate point %v", p)
		}
	}
	for _, r := range []string{"L1", "L2", "L3", "M"} {
		if regions[r] == 0 {
			t.Fatalf("region %s missing from sweep: %v", r, regions)
		}
	}
}

func TestSweepSteadyStateIsExact(t *testing.T) {
	// Every point of the full sweep must produce exact 0/1 rates: this is
	// what makes the cache expectation basis well defined.
	cfgs := tinyConfig()
	for _, p := range BuildSweep(cfgs, []int{64, 128}) {
		res, err := RunSweepPointTLB(cfgs, nil, p, 11, 2)
		if err != nil {
			t.Fatal(err)
		}
		for lvl := 0; lvl < 3; lvl++ {
			want := 0.0
			if int(p.Region) == lvl {
				want = 1
			}
			if math.Abs(res.HitRate[lvl]-want) > 0 {
				t.Errorf("%s: level %d hit rate = %v want %v", p.Name(), lvl, res.HitRate[lvl], want)
			}
		}
		wantMem := 0.0
		if p.Region == RegionMem {
			wantMem = 1
		}
		if res.MemRate != wantMem {
			t.Errorf("%s: mem rate = %v want %v", p.Name(), res.MemRate, wantMem)
		}
	}
}

// Property: hits + misses at L1 equals total accesses, and level hit rates
// sum (with memory) to 1 per access.
func TestConservationProperty(t *testing.T) {
	f := func(seedRaw uint8, elemsRaw uint8) bool {
		n := int(elemsRaw)%120 + 4
		res, err := RunSweepPointTLB(tinyConfig(), nil, SweepPoint{StrideBytes: 64, Elements: n}, int64(seedRaw), 2)
		if err != nil {
			return false
		}
		if res.HitRate[0]+res.MissRate[0] != 1 {
			return false
		}
		sum := res.MemRate
		for _, hr := range res.HitRate {
			sum += hr
		}
		return math.Abs(sum-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
