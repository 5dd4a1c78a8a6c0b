package cachesim

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// TestAllSetsFitAnalytic pins the closed-form fit predicate for line-aligned
// strides against the O(n) per-set count, and the count itself for strides
// that straddle line boundaries.
func TestAllSetsFitAnalytic(t *testing.T) {
	countRef := func(lc LevelConfig, cfg ChaseConfig, lineShift uint) bool {
		counts := make([]int32, lc.Sets())
		nsets := uint64(lc.Sets())
		for i := 0; i < cfg.Elements; i++ {
			line := (cfg.Base + uint64(i)*uint64(cfg.StrideBytes)) >> lineShift
			counts[line%nsets]++
		}
		for _, c := range counts {
			if int(c) > lc.Ways {
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
		for _, stride := range []int{64, 96, 128, 192, 200, 256, 64 * 32, 64 * 15} {
			for _, n := range []int{2, 7, 31, 32, 33, 64, 65, 100, 128, 129, 256, 257, 1000} {
				for _, base := range []uint64{0, 64, 4096 + 192} {
					cfg := ChaseConfig{Elements: n, StrideBytes: stride, Base: base}
					got := allSetsFit(lc, cfg, 6)
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

// TestAllHitNeedsLastLevelFit runs chases through the engine and the
// reference on geometries that separate analysis 4's two conditions. In the
// first, level f fits but the last level overflows: its evictions
// back-invalidate f, so the chase must be simulated. In the second, a
// middle level overflows while f and the last level fit: middle evictions
// do not cascade, so the chase takes the all-hit path.
func TestAllHitNeedsLastLevelFit(t *testing.T) {
	// 4 sets x 4 ways over 8 sets x 2 ways; an 8-line stride sends every
	// element to set 0 of both levels.
	lastOverflows := []LevelConfig{
		{Name: "L1", Size: 4 * 4 * 64, Ways: 4, LineSize: 64},
		{Name: "L2", Size: 8 * 2 * 64, Ways: 2, LineSize: 64},
	}
	middleOverflows := append(lastOverflows[:2:2], LevelConfig{Name: "L3", Size: 16 * 4 * 64, Ways: 4, LineSize: 64})
	for _, tc := range []struct {
		name   string
		levels []LevelConfig
		allHit int64
	}{
		{"last level overflows", lastOverflows, 0},
		{"middle level overflows", middleOverflows, 1},
	} {
		task := SweepTask{Point: SweepPoint{Region: RegionL1, StrideBytes: 512, Elements: 3}, Seed: 3}
		before := allHitRuns.Load()
		got := coldRun(t, tc.levels, tinyTLBs(), []SweepTask{task}, 2, 1)
		if n := allHitRuns.Load() - before; n != tc.allHit {
			t.Errorf("%s: %d chases took the all-hit path, want %d", tc.name, n, tc.allHit)
		}
		want, err := RunSweepPointTLB(tc.levels, tinyTLBs(), task.Point, task.Seed, 2)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, tc.name, got[0], want)
	}
}

// TestShippedSweepTakesProofs pins analyses 1, 4 and 5 on the shipped
// sweep. Every point's cache side is settled without a key stream: the L1-,
// L2- and L3-region points are all-hit at their own level (analysis 4), and
// the Mem points all-miss at every level (analysis 1). Both analyses read
// the geometry, the stride and the length, never the seed, so this holds at
// every thread count up to cat.MaxThreads. A failure here puts the cache
// engine back on the collection path, and that path must then be measured.
// Then, at four threads with the chain seeds cat.DCache uses, every L1-, L2-
// and L3-region chase takes the all-hit path, and every residue group of
// every Mem-region chase's TLB side warms on a proven tail. The counters are
// bumped where the paths run, so a silent fallback to simulation fails here
// even though its results would still be right.
func TestShippedSweepTakesProofs(t *testing.T) {
	levels, tlbs := SPRLikeConfig(), SPRLikeTLBConfig()
	for _, p := range BuildSweep(levels, []int{64, 128}) {
		plan, err := buildPlan(levels, tlbs, ChaseConfig{Elements: p.Elements, StrideBytes: p.StrideBytes, Seed: 1}, 6)
		if err != nil {
			t.Fatal(err)
		}
		// A region's index is its level's; RegionMem's is len(levels).
		settled := plan.allHit || plan.firstSim == len(levels)
		if plan.firstSim != int(p.Region) || !settled || plan.cacheKeys != nil || plan.cacheStarts != nil {
			t.Errorf("%s: first simulated level %d, all-hit %v, %d cache keys; want level %d, settled, no keys",
				p.Name(), plan.firstSim, plan.allHit, len(plan.cacheKeys), int(p.Region))
		}
	}

	var fits, mem []SweepTask
	for thread := int64(0); thread < 4; thread++ {
		for i, p := range BuildSweep(levels, []int{64, 128}) {
			task := SweepTask{Point: p, Seed: 1 + thread*7919 + int64(i)}
			if p.Region == RegionMem {
				mem = append(mem, task)
			} else {
				fits = append(fits, task)
			}
		}
	}
	if len(fits) != 48 || len(mem) != 16 {
		t.Fatalf("sweep has %d non-Mem and %d Mem chases, want 48 and 16", len(fits), len(mem))
	}
	before := allHitRuns.Load()
	got := coldRun(t, levels, tlbs, fits, 1, 0)
	if n := allHitRuns.Load() - before; n != int64(len(fits)) {
		t.Fatalf("%d of %d non-Mem chases took the all-hit path", n, len(fits))
	}
	for i, task := range fits {
		want, err := RunSweepPointTLB(levels, tlbs, task.Point, task.Seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, task.Point.Name(), got[i], want)
	}

	// Every Mem chase is long enough to shard, one residue group per DTLB set.
	groups := int64(len(mem) * tlbs[0].Sets())
	before = tailWarmups.Load()
	coldRun(t, levels, tlbs, mem, 1, 0)
	if n := tailWarmups.Load() - before; n != groups {
		t.Fatalf("%d of %d Mem-region TLB groups warmed on a proven tail", n, groups)
	}
}

// TestWarmTailRefusesBackInvalidation pins why analysis 5 is TLB-only, and
// so why the engine refuses a tail warm-up when it is inclusive. On two
// inclusive 2-way cache levels, the tail [1 0 2 0 3] of this stream passes
// both level checks — after each part, the level's one set is full of lines
// touched in that part — yet the full warmup ends with {3, 0} in both levels
// and the tail with {3, 2}: key 0's hit at level 0 leaves it least recent at
// the last level, whose evictions then back-invalidate it at different
// times. The inclusive engine refuses that tail and stays empty. A TLB
// engine, whose fills never cascade, proves the same tail on the same shape
// and ends where its full warmup does.
func TestWarmTailRefusesBackInvalidation(t *testing.T) {
	stream := []uint32{0, 1, 0, 2, 0, 3}
	tail := stream[1:]
	cfgs := []LevelConfig{
		{Name: "L1", Size: 2 * 64, Ways: 2, LineSize: 64},
		{Name: "L2", Size: 2 * 64, Ways: 2, LineSize: 64},
	}
	lines := func(s *mtfSim, li int) map[uint64]bool {
		live := map[uint64]bool{}
		for _, tag := range s.levels[li].tags {
			if tag != emptyTag {
				live[tag] = true
			}
		}
		return live
	}
	full := newMTFCacheSim(cfgs)
	full.replay(stream)
	part := newMTFCacheSim(cfgs)
	for p, keys := range [][]uint32{tail[:2], tail[2:]} {
		part.replay(keys)
		for _, tag := range part.levels[p].tags {
			if tag == emptyTag || !slices.Contains(keys, uint32(tag)) {
				t.Fatalf("cache level %d is not settled after part %d: it holds %v", p, p, part.levels[p].tags)
			}
		}
	}
	for li := range cfgs {
		if want := map[uint64]bool{3: true, 0: true}; !reflect.DeepEqual(lines(full, li), want) {
			t.Fatalf("cache level %d after the full warmup holds %v, want %v", li, lines(full, li), want)
		}
		if want := map[uint64]bool{3: true, 2: true}; !reflect.DeepEqual(lines(part, li), want) {
			t.Fatalf("cache level %d after the tail holds %v, want %v", li, lines(part, li), want)
		}
	}
	cache := newMTFCacheSim(cfgs)
	if cache.warmTails(stream, []int32{0, int32(len(stream))}, len(tail), 1) {
		t.Fatal("the inclusive engine accepted a tail warm-up, which back-invalidation breaks")
	}
	for li := range cfgs {
		if got := lines(cache, li); len(got) != 0 {
			t.Fatalf("cache level %d holds %v after the refused warm-up, want nothing", li, got)
		}
	}

	tlbs := []TLBConfig{{Name: "T0", Entries: 2, Ways: 2, PageBits: 12}, {Name: "T1", Entries: 2, Ways: 2, PageBits: 12}}
	fullTLB, tailTLB := newMTFSim(tlbs), newMTFSim(tlbs)
	fullTLB.replay(stream)
	if !tailTLB.warmTails(stream, []int32{0, int32(len(stream))}, len(tail), 1) {
		t.Fatal("the TLB engine refused a tail its fills cannot break")
	}
	for li := range tlbs {
		if !reflect.DeepEqual(tailTLB.levels[li].tags, fullTLB.levels[li].tags) {
			t.Fatalf("TLB level %d after the tail holds %v, after the full warmup %v",
				li, tailTLB.levels[li].tags, fullTLB.levels[li].tags)
		}
	}
}

// tlbShape decodes a fuzz shape into a valid TLB hierarchy of 1–3 levels.
// Level 0 has 1, 2, 3, 4, 5 or 8 sets; each lower level multiplies the set
// count by 1–3 and adds 0–2 ways, so entries never shrink and level 0's set
// count divides every lower one, as residue sharding requires.
//
// Bits 0–2 pick level 0's set count, bits 3–4 its ways (1–4), bits 5–6 the
// level count; level i uses bits 7+4i–8+4i for its set multiplier and
// 9+4i–10+4i for its added ways.
func tlbShape(shape uint32) []TLBConfig {
	field := func(at, width int) int { return int(shape>>at) & (1<<width - 1) }
	sets := []int{1, 2, 3, 4, 5, 8}[field(0, 3)%6]
	ways := 1 + field(3, 2)
	cfgs := []TLBConfig{{Name: "T0", Entries: sets * ways, Ways: ways, PageBits: 12}}
	for i := 1; i < 1+field(5, 2)%3; i++ {
		sets *= 1 + field(7+4*i, 2)%3
		ways += field(9+4*i, 2) % 3
		cfgs = append(cfgs, TLBConfig{Name: "T", Entries: sets * ways, Ways: ways, PageBits: 12})
	}
	return cfgs
}

// Outcomes of checkTailWarmup.
const (
	tailShort    = iota // every group fit in the tail and warmed in full
	tailProven          // some group warmed on a proven tail
	tailFellBack        // a proof failed; the unit warmed in full
)

// checkTailWarmup groups the stream's keys (one per byte) by residue at
// level 0 in stream order, as buildPlan does, and warms one engine on the
// groups' proven tails — falling back as runChases does, from the empty
// engine a failed proof must leave — and a twin in full. It then replays
// the keys once on each and fails unless every counter matches.
func checkTailWarmup(t *testing.T, cfgs []TLBConfig, stream []byte, tail int) int {
	t.Helper()
	if _, err := NewTLBHierarchy(cfgs); err != nil {
		t.Fatal(err)
	}
	s0 := cfgs[0].Sets()
	counts := make([]int32, s0)
	for _, b := range stream {
		counts[int(b)%s0]++
	}
	starts, cur := groupStarts(counts)
	keys := make([]uint32, len(stream))
	longest := int32(0)
	for _, b := range stream {
		keys[cur[int(b)%s0]] = uint32(b)
		cur[int(b)%s0]++
	}
	for g := range counts {
		longest = max(longest, counts[g])
	}

	full := newMTFSim(cfgs)
	full.replay(keys)
	full.resetCounters()
	full.replay(keys)

	sim := newMTFSim(cfgs)
	outcome := tailShort
	if !sim.warmTails(keys, starts, tail, s0) {
		outcome = tailFellBack
		for li := range sim.levels {
			for _, tag := range sim.levels[li].tags {
				if tag != emptyTag {
					t.Fatalf("%+v tail %d: level %d holds %v after a failed proof, want an empty engine", cfgs, tail, li, sim.levels[li].tags)
				}
			}
		}
		sim.replay(keys)
	} else if int(longest) > tail {
		outcome = tailProven
	}
	sim.resetCounters()
	sim.replay(keys)

	for li := range cfgs {
		if sim.levels[li].hits != full.levels[li].hits || sim.levels[li].misses != full.levels[li].misses {
			t.Fatalf("%+v tail %d, %d keys: level %d counts %d/%d after the tail warmup, %d/%d after a full one",
				cfgs, tail, len(keys), li, sim.levels[li].hits, sim.levels[li].misses,
				full.levels[li].hits, full.levels[li].misses)
		}
	}
	if sim.bottom != full.bottom || sim.accesses != full.accesses {
		t.Fatalf("%+v tail %d, %d keys: walks/accesses %d/%d after the tail warmup, %d/%d after a full one",
			cfgs, tail, len(keys), sim.bottom, sim.accesses, full.bottom, full.accesses)
	}
	return outcome
}

// tailWarmupSeeds are FuzzTailWarmup's committed seeds; TestTailWarmupSeeds
// pins each one's outcome, so the corpus keeps exercising both a passing
// proof and each way a proof must fail. Shapes are tlbShape's bit fields.
var tailWarmupSeeds = []struct {
	shape   uint32
	tail    uint16 // the tail length is tail+1
	stream  []byte
	outcome int
}{
	// A cyclic stream over 3 sets x 3 ways above 3 sets x 4 ways.
	{shape: 2<<3 | 1<<5 | 1<<13, tail: 32, stream: cycle(40, 4), outcome: tailProven},
	// Random keys over three levels with odd set counts (3, 6, 12).
	{shape: 2 | 1<<3 | 2<<5 | 2<<11 | 1<<15, tail: 96, stream: draws(1, 600, 120), outcome: tailProven},
	// A 1-key tail cannot fill level 0.
	{shape: 1 | 1<<3 | 1<<5, tail: 0, stream: cycle(16, 3), outcome: tailFellBack},
	// The tail revisits one key, so level 1 (2 ways) is never filled.
	{shape: 1<<5 | 1<<13, tail: 7, stream: append(cycle(12, 2), 0, 0, 0, 0, 0, 0, 0, 0), outcome: tailFellBack},
	// 2 sets x 2 ways over the same: the tail's cold level-0 misses touch
	// level 1 with key 2 during part 0, which the full warmup serves from
	// level 0. Level 1 ends full, but holding 2 where a full warmup holds 0;
	// only the check that entries were touched after part 0 catches it.
	{shape: 1 | 1<<3 | 1<<5, tail: 3, stream: []byte{2, 0, 2, 4, 4, 1}, outcome: tailFellBack},
	// Key 5 is the only key of its level-1 set and comes before the tail:
	// the tail leaves that set empty, and only marking the whole group's
	// sets, not just the tail's, catches it.
	{shape: 1<<5 | 1<<11, tail: 1, stream: []byte{5, 2, 4}, outcome: tailFellBack},
	// The same shape: the first key's level-1 set is one the tail settles,
	// and key 1, before the tail, maps to the other, which the tail leaves
	// empty. Only marking every set the group maps to, not just the first
	// ones the scan meets, catches it.
	{shape: 1<<5 | 1<<11, tail: 1, stream: []byte{0, 1, 2, 4}, outcome: tailFellBack},
}

// cycle returns keys 0..n-1 repeated reps times.
func cycle(n, reps int) []byte {
	var out []byte
	for r := 0; r < reps; r++ {
		for k := 0; k < n; k++ {
			out = append(out, byte(k))
		}
	}
	return out
}

// draws returns n keys drawn uniformly below span.
func draws(seed int64, n, span int) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(rng.Intn(span))
	}
	return out
}

// TestTailWarmupSeeds pins each committed seed's outcome, so the corpus
// keeps exercising both a passing proof and a fallback.
func TestTailWarmupSeeds(t *testing.T) {
	for i, s := range tailWarmupSeeds {
		if got := checkTailWarmup(t, tlbShape(s.shape), s.stream, 1+int(s.tail)); got != s.outcome {
			t.Errorf("seed %d: outcome %d, want %d", i, got, s.outcome)
		}
	}
}

// TestTailWarmupMatchesFullWarmup draws thousands of geometries, tails and
// streams: every proven tail must count what a full warmup counts, and both
// outcomes must occur often.
func TestTailWarmupMatchesFullWarmup(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var outcomes [3]int
	for i := 0; i < 3000; i++ {
		stream := draws(rng.Int63(), rng.Intn(2000), 1+rng.Intn(256))
		outcomes[checkTailWarmup(t, tlbShape(rng.Uint32()), stream, 1+rng.Intn(300))]++
	}
	t.Logf("outcomes short/proven/fallback = %v", outcomes)
	if outcomes[tailProven] < 250 || outcomes[tailFellBack] < 250 {
		t.Fatalf("outcomes short/proven/fallback = %v: too few of one kind", outcomes)
	}
}

// FuzzTailWarmup compares the proven-tail warmup plus one measured pass with
// a full warmup plus one measured pass, counter for counter, over fuzzed
// TLB geometries (tlbShape), tail lengths down to one key, and key streams.
func FuzzTailWarmup(f *testing.F) {
	for _, s := range tailWarmupSeeds {
		f.Add(s.shape, s.tail, s.stream)
	}
	f.Fuzz(func(t *testing.T, shape uint32, tail uint16, stream []byte) {
		checkTailWarmup(t, tlbShape(shape), stream, 1+int(tail))
	})
}
