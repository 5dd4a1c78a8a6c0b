package cachesim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// pinnedChains locks the Sattolo chain bytes across refactors: these values
// were recorded from the pre-plan BuildChain and must never change, or every
// golden report in the repo silently shifts.
func TestBuildChainPinned(t *testing.T) {
	cases := []struct {
		cfg  ChaseConfig
		want []uint64
	}{
		{ChaseConfig{Elements: 16, StrideBytes: 64, Seed: 7},
			[]uint64{0, 256, 576, 64, 320, 768, 192, 448, 128, 960, 704, 640, 832, 512, 896, 384}},
		{ChaseConfig{Elements: 10, StrideBytes: 128, Base: 4096, Seed: -3},
			[]uint64{4096, 4608, 4480, 5248, 4736, 4864, 5120, 4992, 4352, 4224}},
		{ChaseConfig{Elements: 33, StrideBytes: 32, Seed: 123456789},
			[]uint64{0, 608, 992, 384, 288, 96, 256, 704, 512, 64, 768, 192, 448, 224, 352, 576, 672, 320, 736, 544, 416, 32, 800, 928, 480, 864, 640, 1024, 896, 960, 832, 160, 128}},
	}
	for _, c := range cases {
		got, err := BuildChain(c.cfg)
		if err != nil {
			t.Fatalf("BuildChain(%+v): %v", c.cfg, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("BuildChain(%+v) drifted:\n got %v\nwant %v", c.cfg, got, c.want)
		}
	}
}

// oddGeometry is a deliberately non-power-of-two hierarchy (3, 6, and 12
// sets) exercising the modulo set-index fallback.
func oddGeometry() []LevelConfig {
	return []LevelConfig{
		{Name: "L1", Size: 3 * 2 * 64, Ways: 2, LineSize: 64},
		{Name: "L2", Size: 6 * 4 * 64, Ways: 4, LineSize: 64},
		{Name: "L3", Size: 12 * 4 * 64, Ways: 4, LineSize: 64},
	}
}

// coprimeGeometry has set counts (4, 6, 10) that do not divide one
// another, so a line the last level evicts can sit in another upper-level
// set than the key that evicted it: back-invalidation then frees a slot
// the key's fill does not take.
func coprimeGeometry() []LevelConfig {
	return []LevelConfig{
		{Name: "L1", Size: 4 * 2 * 64, Ways: 2, LineSize: 64},
		{Name: "L2", Size: 6 * 2 * 64, Ways: 2, LineSize: 64},
		{Name: "L3", Size: 10 * 2 * 64, Ways: 2, LineSize: 64},
	}
}

// fourOverEight is a cache of replay48's shape — a power-of-two 4-way level
// over a power-of-two 8-way one, 16 sets each — which an inclusive engine
// must replay per key: the unrolled kernel never back-invalidates.
func fourOverEight() []LevelConfig {
	return []LevelConfig{
		{Name: "L1", Size: 1 << 12, Ways: 4, LineSize: 64},
		{Name: "L2", Size: 1 << 13, Ways: 8, LineSize: 64},
	}
}

// sameState fails unless the engine's per-level counters equal stats(i),
// its bottom and access totals equal the reference's, and every set of
// every level holds the reference's MRU-first slice sets(i)[set], padded
// with empty slots.
func sameState(t *testing.T, label string, s *mtfSim, stats func(int) (uint64, uint64), sets func(int) [][]uint64, bottom, accesses uint64) {
	t.Helper()
	for li := range s.levels {
		l := &s.levels[li]
		if wh, wm := stats(li); l.hits != wh || l.misses != wm {
			t.Fatalf("%s level %d: counters (%d,%d) != reference (%d,%d)", label, li, l.hits, l.misses, wh, wm)
		}
		for set, want := range sets(li) {
			got := l.tags[uint64(set)*l.ways : uint64(set+1)*l.ways]
			for j := range got {
				w := uint64(emptyTag)
				if j < len(want) {
					w = want[j]
				}
				if got[j] != w {
					t.Fatalf("%s level %d set %d: tags %v, reference %v", label, li, set, got, want)
				}
			}
		}
	}
	if s.bottom != bottom || s.accesses != accesses {
		t.Fatalf("%s: bottom/accesses (%d,%d) != reference (%d,%d)", label, s.bottom, s.accesses, bottom, accesses)
	}
}

// sameAsHierarchy is sameState against the reference cache.
func sameAsHierarchy(t *testing.T, label string, s *mtfSim, h *Hierarchy) {
	t.Helper()
	sets := func(i int) [][]uint64 { return h.levels[i].sets }
	sameState(t, label, s, h.LevelStats, sets, h.MemAccesses, h.Accesses)
}

// sameAsTLB is sameState against the reference TLB.
func sameAsTLB(t *testing.T, label string, s *mtfSim, h *TLBHierarchy) {
	t.Helper()
	sets := func(i int) [][]uint64 { return h.levels[i].sets }
	sameState(t, label, s, h.LevelStats, sets, h.Walks, h.Accesses)
}

// TestFastSimMatchesReferenceCache drives the reference hierarchy and the
// inclusive move-to-front engine with identical random access streams: the
// served level after every access, and after every round every counter and
// every set's tags — across resets, on odd set counts, on set counts that
// do not divide one another, on one level, and on replay48's 4-over-8 shape.
func TestFastSimMatchesReferenceCache(t *testing.T) {
	for _, cfgs := range [][]LevelConfig{tinyConfig(), oddGeometry(), coprimeGeometry(), {{Name: "only", Size: 2 * 2 * 64, Ways: 2, LineSize: 64}}, fourOverEight()} {
		fast := newMTFCacheSim(cfgs)
		rng := rand.New(rand.NewSource(42))
		for round := 0; round < 3; round++ {
			h := mustHierarchy(t, cfgs)
			fast.resetState()
			for i := 0; i < 20000; i++ {
				addr := uint64(rng.Intn(cfgs[len(cfgs)-1].Size * 3))
				want := h.Access(addr)
				if got := fast.access(uint32(addr >> h.lineShift)); got != want {
					t.Fatalf("%+v round %d access %d (addr %d): level %d, reference %d", cfgs, round, i, addr, got, want)
				}
			}
			sameAsHierarchy(t, fmt.Sprintf("%+v round %d", cfgs, round), fast, h)
		}
	}
}

// TestFastSimMatchesReferenceTLB is the same drive for a TLB engine, on 1-,
// 2- and 3-level geometries with odd set counts and odd ways, and the
// shipped shape: after every access the served level agrees, and after
// every round every counter and each set's tags — including across a reset.
func TestFastSimMatchesReferenceTLB(t *testing.T) {
	for _, cfgs := range [][]TLBConfig{
		{{Name: "DTLB", Entries: 12, Ways: 3, PageBits: 12}, {Name: "STLB", Entries: 32, Ways: 4, PageBits: 12}},
		{{Name: "only", Entries: 15, Ways: 5, PageBits: 12}},
		{{Name: "T0", Entries: 6, Ways: 2, PageBits: 12}, {Name: "T1", Entries: 18, Ways: 3, PageBits: 12}, {Name: "T2", Entries: 40, Ways: 4, PageBits: 12}},
		{{Name: "T0", Entries: 4, Ways: 1, PageBits: 12}, {Name: "T1", Entries: 14, Ways: 7, PageBits: 12}},
		SPRLikeTLBConfig(),
	} {
		fast := newMTFSim(cfgs)
		rng := rand.New(rand.NewSource(7))
		for round := 0; round < 3; round++ {
			ref, err := NewTLBHierarchy(cfgs)
			if err != nil {
				t.Fatal(err)
			}
			fast.resetState()
			span := 4 * cfgs[len(cfgs)-1].Entries << 12
			for i := 0; i < 20000; i++ {
				addr := uint64(rng.Intn(span))
				want := ref.Translate(addr)
				if got := fast.access(uint32(addr >> cfgs[0].PageBits)); got != want {
					t.Fatalf("%+v round %d access %d (addr %d): level %d, reference %d", cfgs, round, i, addr, got, want)
				}
			}
			sameAsTLB(t, fmt.Sprintf("%+v round %d", cfgs, round), fast, ref)
		}
	}
}

// cacheShape decodes a fuzz shape into a valid cache hierarchy of 1–3
// levels with 64-byte lines. Bits 0–1 pick the level count. Level i takes
// its set count from bits 2+6i–4+6i (1, 2, 3, 4, 5, 6, 8 or 16 sets, so an
// upper level's set count need not divide a lower one's) and its ways (1–8)
// from bits 5+6i–7+6i, raised where needed so that no level holds fewer
// lines than the one above it.
func cacheShape(shape uint32) []LevelConfig {
	field := func(at, width int) int { return int(shape>>at) & (1<<width - 1) }
	var cfgs []LevelConfig
	lines := 0
	for i := 0; i < 1+field(0, 2)%3; i++ {
		sets := []int{1, 2, 3, 4, 5, 6, 8, 16}[field(2+6*i, 3)]
		ways := max(1+field(5+6*i, 3), (lines+sets-1)/sets)
		lines = sets * ways
		cfgs = append(cfgs, LevelConfig{Name: fmt.Sprintf("L%d", i+1), Size: lines * 64, Ways: ways, LineSize: 64})
	}
	return cfgs
}

// checkCacheEngine drives an inclusive engine and the reference hierarchy
// with the stream's keys, one per byte: the served level must agree at
// every access, and every counter and every set's tags at the end. A twin
// engine replays the whole stream through replay and must end in the same
// state.
func checkCacheEngine(t *testing.T, cfgs []LevelConfig, stream []byte) {
	t.Helper()
	h := mustHierarchy(t, cfgs)
	s := newMTFCacheSim(cfgs)
	keys := make([]uint32, len(stream))
	for i, b := range stream {
		keys[i] = uint32(b)
		if got, want := s.access(keys[i]), h.Access(uint64(b)<<h.lineShift); got != want {
			t.Fatalf("%+v access %d (key %d): level %d, reference %d", cfgs, i, b, got, want)
		}
	}
	sameAsHierarchy(t, fmt.Sprintf("%+v", cfgs), s, h)
	twin := newMTFCacheSim(cfgs)
	twin.replay(keys)
	sameAsHierarchy(t, fmt.Sprintf("%+v replayed", cfgs), twin, h)
}

// restores counts the accesses of the stream, one key per byte, on which
// back-invalidation needs backInvalidate's restore, read off the reference:
// the key misses every level, the last level evicts a line, and at some
// upper level that line shares the key's full set, so the reference's
// fill takes the slot the invalidation freed and drops nothing.
func restores(t *testing.T, cfgs []LevelConfig, stream []byte) int {
	t.Helper()
	h := mustHierarchy(t, cfgs)
	n := 0
	for _, b := range stream {
		key := uint64(b)
		last := h.levels[len(h.levels)-1]
		if set := last.sets[key%last.nsets]; len(set) == last.cfg.Ways && !slices.Contains(set, key) {
			victim := set[len(set)-1]
			for _, l := range h.levels[:len(h.levels)-1] {
				if up := l.sets[key%l.nsets]; len(up) == l.cfg.Ways && slices.Contains(up, victim) {
					n++
					break
				}
			}
		}
		h.Access(key << h.lineShift)
	}
	return n
}

// cacheEngineSeeds are FuzzCacheEngine's committed seeds. Shapes are
// cacheShape's bit fields; TestCacheEngineSeeds pins which reach the
// restore.
var cacheEngineSeeds = []struct {
	shape    uint32
	stream   []byte
	restores bool
}{
	// One 2-way set over one 2-way set: key 2 evicts 0 from the last level
	// while level 0 holds {0, 1}, so level 0 must end with {2, 1}.
	{shape: 1 | 1<<5 | 1<<11, stream: []byte{0, 1, 0, 2}, restores: true},
	// replay48's shape: 16 sets x 4 ways over 16 sets x 8 ways.
	{shape: 1 | 7<<2 | 3<<5 | 7<<8 | 7<<11, stream: draws(3, 400, 200), restores: true},
	// 4 sets x 2 ways over 6 sets x 2 ways: a victim can sit in another
	// level-0 set than the key, where nothing is restored.
	{shape: 1 | 3<<2 | 1<<5 | 5<<8 | 1<<11, stream: draws(4, 200, 40), restores: true},
	// Three levels with odd set counts (3, 5, 6).
	{shape: 2 | 2<<2 | 1<<5 | 4<<8 | 1<<11 | 5<<14 | 2<<17, stream: draws(5, 200, 60), restores: true},
	// One level: nothing above it to invalidate.
	{shape: 4<<2 | 2<<5, stream: draws(6, 100, 30)},
}

// TestCacheEngineSeeds runs each committed seed and pins whether it reaches
// the restore, so the corpus keeps exercising it.
func TestCacheEngineSeeds(t *testing.T) {
	for i, s := range cacheEngineSeeds {
		cfgs := cacheShape(s.shape)
		checkCacheEngine(t, cfgs, s.stream)
		if got := restores(t, cfgs, s.stream) > 0; got != s.restores {
			t.Errorf("seed %d (%+v): reaches the restore %v, want %v", i, cfgs, got, s.restores)
		}
	}
}

// FuzzCacheEngine compares the inclusive engine with Hierarchy.Access over
// fuzzed cache geometries (cacheShape) and key streams.
func FuzzCacheEngine(f *testing.F) {
	for _, s := range cacheEngineSeeds {
		f.Add(s.shape, s.stream)
	}
	f.Fuzz(func(t *testing.T, shape uint32, stream []byte) {
		checkCacheEngine(t, cacheShape(shape), stream)
	})
}

// sameResult demands bit-level equality of every ChaseResult field.
func sameResult(t *testing.T, label string, got, want *ChaseResult) {
	t.Helper()
	if got.Config != want.Config || got.Accesses != want.Accesses {
		t.Fatalf("%s: config/accesses %+v/%d != %+v/%d", label, got.Config, got.Accesses, want.Config, want.Accesses)
	}
	bits := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	if !reflect.DeepEqual(bits(got.HitRate), bits(want.HitRate)) ||
		!reflect.DeepEqual(bits(got.MissRate), bits(want.MissRate)) ||
		!reflect.DeepEqual(bits(got.TLBMissRate), bits(want.TLBMissRate)) ||
		math.Float64bits(got.MemRate) != math.Float64bits(want.MemRate) ||
		math.Float64bits(got.WalkRate) != math.Float64bits(want.WalkRate) {
		t.Fatalf("%s: rates diverge\n got %+v\nwant %+v", label, got, want)
	}
}

// TestRunSweepTasksMatchesReference proves the planned path bit-identical to
// RunSweepPointTLB over full sweeps of the tiny and odd hierarchies — with
// and without a TLB model, at a sub-line stride (which disables level
// skipping), for one and several measured passes, serial and parallel. Each
// worker count starts from an empty memo, so each one runs the engine.
func TestRunSweepTasksMatchesReference(t *testing.T) {
	tlbs := []TLBConfig{
		{Name: "DTLB", Entries: 8, Ways: 2, PageBits: 8}, // tiny pages so TLB regimes vary
		{Name: "STLB", Entries: 32, Ways: 4, PageBits: 8},
	}
	for _, tc := range []struct {
		name   string
		levels []LevelConfig
		tlbs   []TLBConfig
		passes int
	}{
		{"tiny", tinyConfig(), nil, 1},
		{"tiny-tlb", tinyConfig(), tlbs, 2},
		{"odd", oddGeometry(), tlbs, 1},
	} {
		points := BuildSweep(tc.levels, []int{32, 64, 128})
		if len(points) < 6 {
			t.Fatalf("%s: sweep too small (%d points)", tc.name, len(points))
		}
		var tasks []SweepTask
		for i, p := range points {
			tasks = append(tasks, SweepTask{Point: p, Seed: int64(100*i + 1)})
		}
		for _, workers := range []int{1, 4} {
			got := coldRun(t, tc.levels, tc.tlbs, tasks, tc.passes, workers)
			for i, task := range tasks {
				want, err := RunSweepPointTLB(tc.levels, tc.tlbs, task.Point, task.Seed, tc.passes)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, tc.name+"/"+task.Point.Name(), got[i], want)
			}
		}
	}
}

// TestRunSweepTasksForcedSharding drops the sharding threshold so even the
// tiny sweeps split into residue-class chunks, then re-proves equality — the
// serial-vs-chunked traversal check at cachesim level. At 1 every residue
// group is its own execution unit; at 16 units are runs of several groups.
func TestRunSweepTasksForcedSharding(t *testing.T) {
	defer func(old int) { planShardMin = old }(planShardMin)
	tlbs := []TLBConfig{
		{Name: "DTLB", Entries: 8, Ways: 2, PageBits: 8},
		{Name: "STLB", Entries: 32, Ways: 4, PageBits: 8},
	}
	points := BuildSweep(tinyConfig(), []int{64, 128})
	var tasks []SweepTask
	for i, p := range points {
		tasks = append(tasks, SweepTask{Point: p, Seed: int64(i) - 3})
	}
	for _, shardMin := range []int{1, 16} {
		planShardMin = shardMin
		for _, workers := range []int{1, 3} {
			got := coldRun(t, tinyConfig(), tlbs, tasks, 2, workers)
			for i, task := range tasks {
				want, err := RunSweepPointTLB(tinyConfig(), tlbs, task.Point, task.Seed, 2)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, fmt.Sprintf("sharded@%d/%s", shardMin, task.Point.Name()), got[i], want)
			}
		}
	}
}

// TestRunSweepTasksSPRMemPoint proves the fully-arithmetic cache side and
// the sharded TLB side on real SPR-like geometry, including a Mem-region
// point whose cache hierarchy is provably all-miss.
func TestRunSweepTasksSPRMemPoint(t *testing.T) {
	levels, tlbs := SPRLikeConfig(), SPRLikeTLBConfig()
	tasks := []SweepTask{
		{Point: SweepPoint{Region: RegionL1, StrideBytes: 64, Elements: 179}, Seed: 11},
		{Point: SweepPoint{Region: RegionL2, StrideBytes: 128, Elements: 1433}, Seed: 12},
		{Point: SweepPoint{Region: RegionL3, StrideBytes: 64, Elements: 22937}, Seed: 13},
		{Point: SweepPoint{Region: RegionMem, StrideBytes: 128, Elements: 131072}, Seed: 14},
	}
	got := coldRun(t, levels, tlbs, tasks, 1, 0)
	for i, task := range tasks {
		want, err := RunSweepPointTLB(levels, tlbs, task.Point, task.Seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, task.Point.Name(), got[i], want)
	}
}

// TestSkipLevels pins the all-miss analysis on the SPR geometry: Mem points
// skip the whole hierarchy, L3 points skip L1+L2, and sub-line strides skip
// nothing.
func TestSkipLevels(t *testing.T) {
	levels := SPRLikeConfig()
	cases := []struct {
		cfg  ChaseConfig
		want int
	}{
		{ChaseConfig{Elements: 179, StrideBytes: 64}, 0},
		{ChaseConfig{Elements: 2867, StrideBytes: 64}, 1},
		{ChaseConfig{Elements: 22937, StrideBytes: 64}, 2},
		{ChaseConfig{Elements: 262144, StrideBytes: 64}, 3},
		{ChaseConfig{Elements: 131072, StrideBytes: 128}, 3},
		{ChaseConfig{Elements: 262144, StrideBytes: 32}, 0}, // sub-line stride
	}
	for _, c := range cases {
		if got := skipLevels(levels, c.cfg, 6); got != c.want {
			t.Errorf("skipLevels(n=%d stride=%d) = %d, want %d", c.cfg.Elements, c.cfg.StrideBytes, got, c.want)
		}
	}
}

// TestReplayMatchesAccess drives replay — the unrolled 4-over-8 kernel and
// the per-key path — against the reference simulators key by key: cache
// engines on 1-, 2- and 3-level geometries with pow2, non-pow2 and
// mutually non-dividing set counts, and replay48's 4-over-8 shape, which an
// inclusive engine
// must replay per key; and TLB engines on the shipped 4-over-8 shape (the
// unrolled kernel), the same ways over an odd set count, and other shapes
// (the per-key path). Every counter and every set's tags must agree after
// every traversal, including across a reset.
func TestReplayMatchesAccess(t *testing.T) {
	geoms := [][]LevelConfig{
		{{Size: 1 << 10, Ways: 2, LineSize: 64}},
		{{Size: 1 << 10, Ways: 2, LineSize: 64}, {Size: 1 << 12, Ways: 4, LineSize: 64}},
		{{Size: 1 << 10, Ways: 2, LineSize: 64}, {Size: 1 << 12, Ways: 4, LineSize: 64}, {Size: 1 << 14, Ways: 4, LineSize: 64}},
		fourOverEight(),
		oddGeometry(),
		coprimeGeometry(),
		oddGeometry()[:2],
		oddGeometry()[:1],
	}
	rng := rand.New(rand.NewSource(99))
	// Small key range forces heavy set conflicts, evictions, and cascade
	// invalidations.
	stream := func(span int) []uint32 {
		keys := make([]uint32, 4096)
		for i := range keys {
			keys[i] = uint32(rng.Intn(span))
		}
		return keys
	}
	for gi, cfgs := range geoms {
		fast := newMTFCacheSim(cfgs)
		for round := 0; round < 3; round++ {
			ref := mustHierarchy(t, cfgs)
			keys := stream(700)
			fast.replay(keys)
			for _, k := range keys {
				ref.Access(uint64(k) << ref.lineShift)
			}
			sameAsHierarchy(t, fmt.Sprintf("geom %d round %d", gi, round), fast, ref)
			fast.resetState()
		}
	}

	tlbGeoms := [][]TLBConfig{
		SPRLikeTLBConfig(), // 16 sets x 4 over 64 x 8: the unrolled kernel
		{{Entries: 12, Ways: 4, PageBits: 12}, {Entries: 48, Ways: 8, PageBits: 12}}, // 4-over-8 ways, 3 sets
		{{Entries: 8, Ways: 4, PageBits: 12}, {Entries: 16, Ways: 8, PageBits: 12}},  // 2 sets each
		{{Entries: 6, Ways: 2, PageBits: 12}, {Entries: 18, Ways: 3, PageBits: 12}, {Entries: 40, Ways: 4, PageBits: 12}},
		{{Entries: 15, Ways: 5, PageBits: 12}},
	}
	for gi, cfgs := range tlbGeoms {
		fast := newMTFSim(cfgs)
		for round := 0; round < 3; round++ {
			ref, err := NewTLBHierarchy(cfgs)
			if err != nil {
				t.Fatal(err)
			}
			keys := stream(2 * cfgs[len(cfgs)-1].Entries)
			fast.replay(keys)
			for _, k := range keys {
				ref.Translate(uint64(k) << cfgs[0].PageBits)
			}
			sameAsTLB(t, fmt.Sprintf("TLB geom %d round %d", gi, round), fast, ref)
			fast.resetState()
		}
	}
}

// TestAllSetsOverflowAnalytic pins the closed-form overflow predicate for
// line-aligned strides against the O(n) per-set count.
func TestAllSetsOverflowAnalytic(t *testing.T) {
	countRef := func(lc LevelConfig, cfg ChaseConfig, lineShift uint) bool {
		counts := make([]int32, lc.Sets())
		nsets := uint64(lc.Sets())
		for i := 0; i < cfg.Elements; i++ {
			line := (cfg.Base + uint64(i)*uint64(cfg.StrideBytes)) >> lineShift
			counts[line%nsets]++
		}
		for _, c := range counts {
			if c != 0 && int(c) <= lc.Ways {
				return false
			}
		}
		return true
	}
	levels := []LevelConfig{
		{Size: 1 << 12, Ways: 2, LineSize: 64},        // 32 sets
		{Size: 1 << 14, Ways: 8, LineSize: 64},        // 32 sets, deep
		{Size: 3 * 64 * 4 * 5, Ways: 4, LineSize: 64}, // 15 sets, non-pow2
	}
	for _, lc := range levels {
		for _, stride := range []int{64, 128, 192, 256, 64 * 32, 64 * 15} {
			for _, n := range []int{1, 7, 31, 32, 33, 64, 100, 1000, 5000} {
				for _, base := range []uint64{0, 64, 4096 + 192} {
					cfg := ChaseConfig{Elements: n, StrideBytes: stride, Base: base}
					got := allSetsOverflow(lc, cfg, 6)
					want := countRef(lc, cfg, 6)
					if got != want {
						t.Fatalf("sets=%d ways=%d stride=%d n=%d base=%d: analytic %v != counted %v",
							lc.Sets(), lc.Ways, stride, n, base, got, want)
					}
				}
			}
		}
	}
}

// BenchmarkReplay48MissStream times the measured-pass TLB kernel: replay48,
// the unrolled DTLB+STLB move-to-front kernel, on a miss-heavy Mem-region
// VPN stream.
func BenchmarkReplay48MissStream(b *testing.B) {
	sim := newMTFSim(SPRLikeTLBConfig())
	keys := make([]uint32, 1<<20)
	rng := rand.New(rand.NewSource(1))
	for i := range keys {
		keys[i] = uint32(rng.Intn(8192))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.replay(keys)
	}
}
