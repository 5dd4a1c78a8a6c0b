package cachesim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
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

// TestFastSimMatchesReferenceCache drives the reference hierarchy and the
// flat engine with identical random access streams and demands equality of
// the served level, all per-level counters, and the memory/access totals
// after every single access — including across an O(1) state reset.
func TestFastSimMatchesReferenceCache(t *testing.T) {
	for _, cfgs := range [][]LevelConfig{tinyConfig(), oddGeometry(), {{Name: "only", Size: 2 * 2 * 64, Ways: 2, LineSize: 64}}} {
		h, err := NewHierarchy(cfgs)
		if err != nil {
			t.Fatal(err)
		}
		fast := newFastCacheSim(cfgs)
		rng := rand.New(rand.NewSource(42))
		for round := 0; round < 3; round++ {
			// Fresh reference vs O(1)-reset fast engine each round.
			h, err = NewHierarchy(cfgs)
			if err != nil {
				t.Fatal(err)
			}
			fast.resetState()
			for i := 0; i < 20000; i++ {
				addr := uint64(rng.Intn(cfgs[len(cfgs)-1].Size * 3))
				want := h.Access(addr)
				got := fast.access(addr >> h.lineShift)
				if got != want {
					t.Fatalf("%s round %d access %d (addr %d): level %d, reference %d", cfgs[0].Name, round, i, addr, got, want)
				}
			}
			for li := range cfgs {
				wh, wm := h.LevelStats(li)
				if fast.levels[li].hits != wh || fast.levels[li].misses != wm {
					t.Fatalf("level %d counters (%d,%d) != reference (%d,%d)",
						li, fast.levels[li].hits, fast.levels[li].misses, wh, wm)
				}
			}
			if fast.bottom != h.MemAccesses || fast.accesses != h.Accesses {
				t.Fatalf("mem/accesses (%d,%d) != reference (%d,%d)", fast.bottom, fast.accesses, h.MemAccesses, h.Accesses)
			}
		}
	}
}

// TestFastSimMatchesReferenceTLB is the same drive for the move-to-front
// TLB engine, on 1-, 2- and 3-level geometries with odd set counts and odd
// ways, and the shipped shape: after every access the served level agrees,
// and after every round each set's tags equal the reference's MRU-first
// slice, padded with empty slots — including across a reset.
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
			for li := range cfgs {
				wh, wm := ref.LevelStats(li)
				fl := &fast.levels[li]
				if fl.hits != wh || fl.misses != wm {
					t.Fatalf("%+v TLB level %d counters (%d,%d) != reference (%d,%d)", cfgs, li, fl.hits, fl.misses, wh, wm)
				}
				for set, want := range ref.levels[li].sets {
					got := fl.tags[uint64(set)*fl.ways : uint64(set+1)*fl.ways]
					for j := range got {
						w := uint64(emptyTag)
						if j < len(want) {
							w = want[j]
						}
						if got[j] != w {
							t.Fatalf("%+v round %d level %d set %d: tags %v, reference %v", cfgs, round, li, set, got, want)
						}
					}
				}
			}
			if fast.bottom != ref.Walks || fast.accesses != ref.Accesses {
				t.Fatalf("walks/accesses (%d,%d) != reference (%d,%d)", fast.bottom, fast.accesses, ref.Walks, ref.Accesses)
			}
		}
	}
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

// TestReplayMatchesAccess drives the fused replay kernels (and the generic
// dispatcher path) against per-access access() on a twin engine: the cache
// engine across 1-, 2- and 3-level geometries with pow2 and non-pow2 set
// counts, and the TLB engine on the shipped 4-over-8 shape (the unrolled
// kernel), the same ways over an odd set count, and other shapes (the
// generic loop). Counter totals and full tag state (and for the cache
// engine, stamps) must agree after every traversal, including across a
// reset.
func TestReplayMatchesAccess(t *testing.T) {
	geoms := [][]LevelConfig{
		{{Size: 1 << 10, Ways: 2, LineSize: 64}},
		{{Size: 1 << 10, Ways: 2, LineSize: 64}, {Size: 1 << 12, Ways: 4, LineSize: 64}},
		{{Size: 1 << 10, Ways: 2, LineSize: 64}, {Size: 1 << 12, Ways: 4, LineSize: 64}, {Size: 1 << 14, Ways: 4, LineSize: 64}},
		{{Size: 1 << 12, Ways: 4, LineSize: 64}, {Size: 1 << 13, Ways: 8, LineSize: 64}},
		oddGeometry(),
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
		fast := newFastCacheSim(cfgs)
		ref := newFastCacheSim(cfgs)
		for round := 0; round < 3; round++ {
			keys := stream(700)
			fast.replay(keys)
			for _, k := range keys {
				ref.access(uint64(k))
			}
			if fast.clock != ref.clock || fast.bottom != ref.bottom || fast.accesses != ref.accesses {
				t.Fatalf("geom %d round %d: clocks/bottom/accesses diverged", gi, round)
			}
			for li := range fast.levels {
				fl, rl := &fast.levels[li], &ref.levels[li]
				if fl.hits != rl.hits || fl.misses != rl.misses {
					t.Fatalf("geom %d round %d level %d: counters %d/%d != %d/%d",
						gi, round, li, fl.hits, fl.misses, rl.hits, rl.misses)
				}
				for s := range fl.tags {
					fLive, rLive := fl.stamps[s] >= fast.floor, rl.stamps[s] >= ref.floor
					if fLive != rLive || (fLive && (fl.tags[s] != rl.tags[s] || fl.stamps[s] != rl.stamps[s])) {
						t.Fatalf("geom %d round %d level %d slot %d: state diverged", gi, round, li, s)
					}
				}
			}
			fast.resetState()
			ref.resetState()
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
		fast, ref := newMTFSim(cfgs), newMTFSim(cfgs)
		for round := 0; round < 3; round++ {
			keys := stream(2 * cfgs[len(cfgs)-1].Entries)
			fast.replay(keys)
			for _, k := range keys {
				ref.access(k)
			}
			if fast.bottom != ref.bottom || fast.accesses != ref.accesses {
				t.Fatalf("TLB geom %d round %d: walks/accesses %d/%d != %d/%d", gi, round, fast.bottom, fast.accesses, ref.bottom, ref.accesses)
			}
			for li := range fast.levels {
				fl, rl := &fast.levels[li], &ref.levels[li]
				if fl.hits != rl.hits || fl.misses != rl.misses {
					t.Fatalf("TLB geom %d round %d level %d: counters %d/%d != %d/%d",
						gi, round, li, fl.hits, fl.misses, rl.hits, rl.misses)
				}
				if !reflect.DeepEqual(fl.tags, rl.tags) {
					t.Fatalf("TLB geom %d round %d level %d: tags diverged", gi, round, li)
				}
			}
			fast.resetState()
			ref.resetState()
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

// BenchmarkReplay2MissStream pins the dominant collection cost: the
// DTLB+STLB move-to-front kernel on a miss-heavy Mem-region VPN stream.
func BenchmarkReplay2MissStream(b *testing.B) {
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
