package cachesim

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
)

// plan.go builds per-sweep-point execution plans for the optimized
// collection path (fastrun.go). A plan is derived once per distinct
// (geometry, elements, stride, base, seed) tuple and cached, so chain
// permutations are shared wherever seeds coincide — across repeated Runs
// and across the serving tier's batched collections. Three exact analyses
// make the plans fast to execute:
//
//  1. Level skipping. For a chase whose stride covers at least one full
//     line, consecutive elements touch strictly increasing — hence
//     distinct — lines. If every nonempty set of a level receives more
//     distinct lines than it has ways, then between two consecutive
//     traversal touches of any line at least `ways` other lines visit its
//     set, each either refreshing or filling an entry above it in LRU
//     order, so the line is evicted before its next touch: the level
//     misses on every access, warm or cold. (Invalidations only remove
//     entries, which can never turn that miss into a hit.) A prefix of
//     levels proven all-miss this way needs no simulation at all — their
//     counters are arithmetic — and for Mem-region points the whole cache
//     hierarchy reduces to arithmetic.
//
//  2. Residue-class sharding. The set index of the first simulated level f
//     is line mod S_f. When S_f divides every lower level's set count,
//     accesses with different residues touch disjoint sets at every
//     simulated level, and back-invalidation victims share the residue of
//     the line that evicted them — so the access stream partitions into
//     S_f completely independent subsequences. Workers replay them
//     concurrently; summing the per-residue uint64 counters reproduces the
//     serial counters exactly, and identical integer totals divide to
//     identical float64 rates. TLB streams shard the same way by
//     vpn mod T_0.
//
//  3. Stream flattening. The traversal's element byte offsets are
//     materialized once, grouped by residue in traversal order, as []uint32
//     — the pointer chase itself (the actually-serial dependency chain) is
//     never re-walked during measurement, and replaying a stream is a
//     linear scan.
type chasePlan struct {
	cfg ChaseConfig
	// firstSim is the first cache level needing real simulation; levels
	// above it are provably all-miss. len(levels) means the whole cache
	// side is arithmetic.
	firstSim int
	// cacheKeys holds pre-shifted line numbers in traversal order grouped
	// by line residue at level firstSim; cacheStarts[r]:cacheStarts[r+1]
	// bounds group r. A single group means sharding was not applicable.
	// Empty when firstSim == len(levels). Storing keys instead of byte
	// offsets moves the base-add and line-shift out of the replay loop.
	cacheKeys   []uint32
	cacheStarts []int32
	// tlbKeys/tlbStarts are the same decomposition for translations —
	// pre-shifted VPNs grouped by residue at TLB level 0. Empty without a
	// TLB model.
	tlbKeys   []uint32
	tlbStarts []int32
	// bytes approximates the plan's retained size for cache accounting.
	bytes int
}

// planShardMin is the element count below which residue sharding is skipped:
// tiny chases cost more to chunk than to replay whole. Tests lower it to
// force sharding on small inputs.
var planShardMin = 1 << 12

// maxPlanElements bounds chases the plan path accepts: keys are stored as
// uint32. The plan path is the only production engine, so a chase past
// this limit fails with the plan-limit error at every worker count.
const maxPlanElements = 1 << 31

// buildPerm returns the successor array of the Sattolo single-cycle
// permutation BuildChain walks. The draw sequence matches the reference
// exactly — same source, same Intn calls — so chains are bit-for-bit
// reproducible across both paths.
func buildPerm(cfg ChaseConfig) ([]int32, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Elements
	if n >= maxPlanElements {
		return nil, fmt.Errorf("cachesim: chase of %d elements exceeds the plan limit", n)
	}
	next := make([]int32, n)
	for i := range next {
		next[i] = int32(i)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i)
		next[i], next[j] = next[j], next[i]
	}
	return next, nil
}

// skipLevels returns the count of leading cache levels provably all-miss
// for the chase (see the package comment's stack-distance argument). Zero
// when the stride is narrower than a line — elements can then share lines
// and no skip is sound.
func skipLevels(cfgs []LevelConfig, cfg ChaseConfig, lineShift uint) int {
	if cfg.StrideBytes < cfgs[0].LineSize {
		return 0
	}
	f := 0
	for ; f < len(cfgs); f++ {
		if !allSetsOverflow(cfgs[f], cfg, lineShift) {
			break
		}
	}
	return f
}

// allSetsOverflow reports whether every set of the level touched by the
// chase receives strictly more distinct lines than the level has ways.
// Caller guarantees stride >= line size, which makes the chase's lines
// distinct, so per-set element counts are per-set distinct-line counts.
//
// For line-aligned strides the counts are closed-form: with q lines per
// step the i-th element lands in set (base-line + i*q) mod S, a sequence of
// period S/gcd(q,S) that distributes elements evenly — every visited set
// receives floor(n/period) or one more. The O(n) count is the fallback for
// strides that straddle line boundaries.
func allSetsOverflow(lc LevelConfig, cfg ChaseConfig, lineShift uint) bool {
	nsets := uint64(lc.Sets())
	if cfg.StrideBytes%lc.LineSize == 0 {
		// (base + i*q*L) >> shift == base>>shift + i*q exactly: multiples
		// of the line size never carry into the low shift bits.
		q := uint64(cfg.StrideBytes / lc.LineSize)
		g := gcd(q%nsets, nsets)
		period := nsets / g
		return uint64(cfg.Elements)/period > uint64(lc.Ways)
	}
	counts := make([]int32, nsets)
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

// gcd is Euclid's algorithm; gcd(0, b) = b covers strides that are set-count
// multiples (every element lands in one set).
func gcd(a, b uint64) uint64 {
	for a != 0 {
		a, b = b%a, a
	}
	return b
}

// shardable reports whether the residue decomposition at the first config's
// set count is exact for the whole tail: it requires the leading set count
// to divide every lower level's, so residue classes map to disjoint sets
// everywhere.
func shardableCache(cfgs []LevelConfig) bool {
	s0 := cfgs[0].Sets()
	for _, cfg := range cfgs[1:] {
		if cfg.Sets()%s0 != 0 {
			return false
		}
	}
	return true
}

func shardableTLB(cfgs []TLBConfig) bool {
	s0 := cfgs[0].Sets()
	for _, cfg := range cfgs[1:] {
		if cfg.Sets()%s0 != 0 {
			return false
		}
	}
	return true
}

// groupStarts turns per-group counts into a starts array (prefix sums) and
// returns cursor positions initialized to each group's start.
func groupStarts(counts []int32) (starts, cursors []int32) {
	starts = make([]int32, len(counts)+1)
	for i, c := range counts {
		starts[i+1] = starts[i] + c
	}
	cursors = make([]int32, len(counts))
	copy(cursors, starts[:len(counts)])
	return starts, cursors
}

// buildPlan materializes the execution plan for one chase under the given
// (validated) geometries. tlbCfgs may be empty.
func buildPlan(cfgs []LevelConfig, tlbCfgs []TLBConfig, cfg ChaseConfig, lineShift uint) (*chasePlan, error) {
	next, err := buildPerm(cfg)
	if err != nil {
		return nil, err
	}
	n := cfg.Elements
	p := &chasePlan{cfg: cfg, firstSim: skipLevels(cfgs, cfg, lineShift)}

	// Decide the grouping for each component: nGroups==1 replays the whole
	// traversal as one stream (sharding inapplicable or not worth it).
	cacheGroups, tlbGroups := 0, 0
	var cacheMod, tlbMod uint64
	if p.firstSim < len(cfgs) {
		cacheGroups = 1
		if n >= planShardMin && shardableCache(cfgs[p.firstSim:]) {
			cacheGroups = cfgs[p.firstSim].Sets()
			cacheMod = uint64(cacheGroups)
		}
	}
	var pageBits uint
	if len(tlbCfgs) > 0 {
		pageBits = tlbCfgs[0].PageBits
		tlbGroups = 1
		if n >= planShardMin && shardableTLB(tlbCfgs) {
			tlbGroups = tlbCfgs[0].Sets()
			tlbMod = uint64(tlbGroups)
		}
	}
	if cacheGroups == 0 && tlbGroups == 0 {
		p.bytes = 64
		return p, nil
	}

	stride := uint64(cfg.StrideBytes)
	// Pre-shifted keys must fit the uint32 stream slots; the smallest shift
	// produces the largest key. Chases addressed past that fail with the
	// plan-limit error.
	minShift := uint(64)
	if cacheGroups > 0 {
		minShift = lineShift
	}
	if tlbGroups > 0 && pageBits < minShift {
		minShift = pageBits
	}
	if (cfg.Base+uint64(n-1)*stride)>>minShift > 1<<32-1 {
		return nil, fmt.Errorf("cachesim: chase footprint at base %#x exceeds the plan limit", cfg.Base)
	}
	// The residue grouping strength-reduces to a mask when the group count
	// is a power of two — every shipped geometry; the modulo fallback keeps
	// odd test geometries exact.
	var cacheMask, tlbMask uint64
	if cacheMod > 1 && cacheMod&(cacheMod-1) == 0 {
		cacheMask = cacheMod - 1
	}
	if tlbMod > 1 && tlbMod&(tlbMod-1) == 0 {
		tlbMask = tlbMod - 1
	}
	// Group sizes first (order-independent, so a plain element scan), then
	// one traversal walk placing each key — a counting sort per component
	// sharing the single walk.
	cacheCounts := make([]int32, cacheGroups)
	tlbCounts := make([]int32, tlbGroups)
	for i := 0; i < n; i++ {
		addr := cfg.Base + uint64(i)*stride
		if cacheMod != 0 {
			line := addr >> lineShift
			if cacheMask != 0 {
				cacheCounts[line&cacheMask]++
			} else {
				cacheCounts[line%cacheMod]++
			}
		}
		if tlbMod != 0 {
			vpn := addr >> pageBits
			if tlbMask != 0 {
				tlbCounts[vpn&tlbMask]++
			} else {
				tlbCounts[vpn%tlbMod]++
			}
		}
	}
	if cacheGroups == 1 {
		cacheCounts[0] = int32(n)
	}
	if tlbGroups == 1 {
		tlbCounts[0] = int32(n)
	}
	var cacheCur, tlbCur []int32
	if cacheGroups > 0 {
		p.cacheKeys = make([]uint32, n)
		p.cacheStarts, cacheCur = groupStarts(cacheCounts)
	}
	if tlbGroups > 0 {
		p.tlbKeys = make([]uint32, n)
		p.tlbStarts, tlbCur = groupStarts(tlbCounts)
	}
	cur := int32(0)
	for k := 0; k < n; k++ {
		addr := cfg.Base + uint64(cur)*stride
		if cacheGroups > 0 {
			line := addr >> lineShift
			g := 0
			switch {
			case cacheMask != 0:
				g = int(line & cacheMask)
			case cacheMod != 0:
				g = int(line % cacheMod)
			}
			p.cacheKeys[cacheCur[g]] = uint32(line)
			cacheCur[g]++
		}
		if tlbGroups > 0 {
			vpn := addr >> pageBits
			g := 0
			switch {
			case tlbMask != 0:
				g = int(vpn & tlbMask)
			case tlbMod != 0:
				g = int(vpn % tlbMod)
			}
			p.tlbKeys[tlbCur[g]] = uint32(vpn)
			tlbCur[g]++
		}
		cur = next[cur]
	}
	p.bytes = 64 + 4*(len(p.cacheKeys)+len(p.tlbKeys)) + 4*(len(p.cacheStarts)+len(p.tlbStarts))
	return p, nil
}

// PlanCacheBudget bounds the bytes the chase-plan cache retains; least
// recently used plans are dropped past it. Plans are pure functions of
// their key, so eviction can never change results — only rebuild cost.
var PlanCacheBudget = 96 << 20

// planCache shares built plans across goroutines and Runs. Entries build
// under a per-entry once so concurrent misses on distinct keys build in
// parallel while duplicate misses coalesce.
var planCache = struct {
	sync.Mutex
	entries map[string]*planEntry
	order   []string // LRU order, least recent first
	bytes   int
}{entries: map[string]*planEntry{}}

type planEntry struct {
	once sync.Once
	plan *chasePlan
	err  error
}

// planKey renders the canonical identity of a plan: full geometry plus the
// chase tuple. Passes are excluded — plans describe the traversal, not how
// often it runs.
func planKey(cfgs []LevelConfig, tlbCfgs []TLBConfig, cfg ChaseConfig) string {
	var b strings.Builder
	for _, c := range cfgs {
		fmt.Fprintf(&b, "%d/%d/%d;", c.Size, c.Ways, c.LineSize)
	}
	b.WriteString("|")
	for _, c := range tlbCfgs {
		fmt.Fprintf(&b, "%d/%d/%d;", c.Entries, c.Ways, c.PageBits)
	}
	fmt.Fprintf(&b, "|n=%d,s=%d,b=%d,seed=%d", cfg.Elements, cfg.StrideBytes, cfg.Base, cfg.Seed)
	return b.String()
}

// planFor returns the cached plan for the chase, building it on first use.
func planFor(cfgs []LevelConfig, tlbCfgs []TLBConfig, cfg ChaseConfig, lineShift uint) (*chasePlan, error) {
	key := planKey(cfgs, tlbCfgs, cfg)
	planCache.Lock()
	e, ok := planCache.entries[key]
	if ok {
		// Refresh LRU position.
		for i, k := range planCache.order {
			if k == key {
				planCache.order = append(append(planCache.order[:i:i], planCache.order[i+1:]...), key)
				break
			}
		}
	} else {
		e = &planEntry{}
		planCache.entries[key] = e
		planCache.order = append(planCache.order, key)
	}
	planCache.Unlock()
	e.once.Do(func() {
		e.plan, e.err = buildPlan(cfgs, tlbCfgs, cfg, lineShift)
		if e.err != nil {
			return
		}
		planCache.Lock()
		planCache.bytes += e.plan.bytes
		for planCache.bytes > PlanCacheBudget && len(planCache.order) > 1 {
			// Evict the least recent *built* plan; in-flight entries stay (their
			// bytes are accounted only once built).
			oldest := ""
			for _, k := range planCache.order {
				if old := planCache.entries[k]; k != key && old != nil && old.plan != nil {
					oldest = k
					break
				}
			}
			if oldest == "" {
				break
			}
			planCache.bytes -= planCache.entries[oldest].plan.bytes
			delete(planCache.entries, oldest)
			for i, k := range planCache.order {
				if k == oldest {
					planCache.order = append(planCache.order[:i], planCache.order[i+1:]...)
					break
				}
			}
		}
		planCache.Unlock()
	})
	if e.err != nil {
		return nil, e.err
	}
	return e.plan, nil
}

// resetPlanCache empties the plan cache; tests use it to exercise cold
// builds and eviction deterministically.
func resetPlanCache() {
	planCache.Lock()
	planCache.entries = map[string]*planEntry{}
	planCache.order = nil
	planCache.bytes = 0
	planCache.Unlock()
}
