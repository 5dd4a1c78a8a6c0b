package cachesim

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
)

// plan.go builds per-sweep-point execution plans for the optimized
// collection path (fastrun.go), and memoizes the results they produce. A
// plan is built for one chase, replayed, and dropped; the memo at the end of
// this file keeps only the chase's result. Five exact analyses make the
// plans fast to execute; whatever they cannot prove goes through the
// simulating engine, so results stay bit-identical to RunSweepPointTLB:
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
//  3. Stream flattening from the insertion tree. Each simulated
//     component's keys are materialized once, grouped by residue in
//     traversal order, as []uint32, so replaying a stream is a linear scan.
//     The traversal order itself is read off the tree Sattolo's algorithm
//     grows, not walked: with j_k = Intn(k) drawn for k = n−1 … 1, the
//     cycle read from element 0 is 0 followed by the post-order of the tree
//     parent(k) = j_k without its root, each node's children in index
//     order. Proof: let seq(x) be the elements after x in x's cycle, up to
//     x. Before step k every x ≤ k heads its own cycle, and swapping
//     next[k] with next[j_k] splices k's cycle into j_k's:
//     seq(j_k) becomes seq(k) ++ [k] ++ seq(j_k). Steps run downward, so a
//     node's children are spliced in from the largest index to the
//     smallest, each in front of the last; seq(x) ends up as seq(c) ++ [c]
//     over x's children c in increasing order — x's subtree in post-order,
//     without x. So element x ≥ 1 sits at 1 + start(x) + size(x) − 1, where
//     size(x) counts x's subtree and start(x) is where its block begins
//     within seq(0): a node's children's blocks follow one another in index
//     order from the node's own block start. traversal computes the sizes
//     (one downward pass with the draws: children carry larger indices),
//     the block starts (one upward pass: parents come first) and the
//     positions (one scatter). None of the passes is a chain of dependent
//     loads, which is what the walk is, and the draws are the walk's.
//
//  4. All-hit levels. Take a chase whose stride covers at least one line
//     (so its lines are distinct), and let f be the first level analysis 1
//     leaves. If every set of level f, and every set of the last level,
//     receives at most `ways` distinct lines, the warmup traversal — one
//     compulsory miss per line — evicts nothing from f by a fill, and
//     nothing from the last level, so no back-invalidation ever fires:
//     after the warmup every line sits in f and stays there. Every measured
//     access then misses the levels above f (analysis 1 still holds for
//     them) and hits f, so the counters are arithmetic — n misses above f,
//     n hits at f, no accesses below it, no memory traffic — and the
//     cache side builds and replays no key stream. Middle levels need no
//     check: their evictions do not cascade. The set loads are the same
//     closed form as analysis 1 for line-aligned strides, and an O(n)
//     count otherwise. Every L1-, L2- and L3-region point of the shipped
//     sweep qualifies.
//
//  5. Proven-tail warmup (mtf.go's warmTails; TLB side only). A residue
//     group longer than tailWarmKeys warms on its last tailWarmKeys keys
//     instead of the whole traversal, replayed from an empty engine in one
//     part per level. After part p the engine checks that every level-p set
//     the group's keys map to is full, and that every entry in it was
//     touched after part p−1 ended. Level 0 sees every access, and level p
//     sees exactly level p−1's misses, so by induction level p's input
//     during part p is the input a full warmup gives it at the same point
//     of the traversal; a full set whose entries were all touched in that
//     window holds the last `ways` distinct keys of it, which is what true
//     LRU holds after the full warmup, in the same recency order. The
//     induction needs fills that never cascade: back-invalidation can
//     remove an entry a full warmup would keep, so the engine refuses a
//     tail warmup when it is inclusive, and the cache side always warms
//     in full. A group that fails the check — a set the tail did not
//     fill, or an entry left over from an earlier part — sends its whole
//     unit back through a reset engine and a full warmup. The sets a
//     group maps to are found from its keys; a plan of G residue groups
//     sends one group's keys to at most S_i/G sets of level i, and the scan
//     stops once it has found that many.
type chasePlan struct {
	cfg ChaseConfig
	// firstSim is the first cache level needing real simulation; levels
	// above it are provably all-miss. len(levels) means the whole cache
	// side is arithmetic.
	firstSim int
	// allHit reports that level firstSim serves every measured access
	// (analysis 4): the cache side is arithmetic and cacheKeys is empty.
	allHit bool
	// cacheKeys holds pre-shifted line numbers in traversal order grouped
	// by line residue at level firstSim; cacheStarts[r]:cacheStarts[r+1]
	// bounds group r. A single group means sharding was not applicable.
	// Empty when the cache side is arithmetic (firstSim == len(levels), or
	// allHit). Storing keys instead of byte
	// offsets moves the base-add and line-shift out of the replay loop.
	cacheKeys   []uint32
	cacheStarts []int32
	// tlbKeys/tlbStarts are the same decomposition for translations —
	// pre-shifted VPNs grouped by residue at TLB level 0. Empty without a
	// TLB model.
	tlbKeys   []uint32
	tlbStarts []int32
}

// planShardMin is the element count below which residue sharding is skipped
// and the fewest keys an execution unit replays (appendUnits): smaller chunks
// cost more to hand out than to replay. Tests lower it to force sharding.
var planShardMin = 1 << 12

// maxPlanElements bounds chases the plan path accepts: keys are stored as
// uint32. The plan path is the only production engine, so a chase past
// this limit fails with the plan-limit error at every worker count.
const maxPlanElements = 1 << 31

// traversal writes the chase's traversal order into order — order[i] is the
// element the chase visits i-th, starting at element 0 — without walking the
// cycle (analysis 3). It consumes the same draws as buildPerm, so the order
// is the walk of buildPerm's cycle. work is scratch of the same length; both
// slices are overwritten.
func traversal(seed int64, order, work []uint32) {
	n := len(order)
	// Draws and subtree sizes, k = n−1 … 1: order[k] = parent(k) = j_k, and
	// work[x] counts x's descendants. A child has a larger index than its
	// parent, so work[k] is final when k is drawn.
	clear(work)
	src := rand.NewSource(seed)
	for k := n - 1; k > 0; k-- {
		j := intn(src, uint32(k))
		order[k] = j
		work[j] += work[k] + 1
	}
	// Block cursors, k = 1 … n−1 (parents first, children in index order):
	// k's block starts at its parent's cursor, which then moves past the
	// block; k's own cursor starts there. Once every child has taken its
	// block, work[x] is the last slot of x's block, x's own post-order slot,
	// counted from 0 after element 0.
	work[0] = 0
	for k := 1; k < n; k++ {
		j := order[k]
		c := work[j]
		work[j] = c + work[k] + 1
		work[k] = c
	}
	order[0] = 0
	for x := 1; x < n; x++ {
		order[work[x]+1] = uint32(x)
	}
}

// intn returns rand.Rand.Intn(m) for m in [1, 2^31) from src, consuming the
// same draws: Int31n's rejection test v > 2^31−1−(2^31 mod m) holds exactly
// when v's multiple-of-m floor leaves less than m below 2^31, so one
// division decides both the test and the result. Powers of two never reject
// and v mod m is v's low bits, as Int31n's mask takes them.
func intn(src rand.Source, m uint32) uint32 {
	for {
		v := uint32(src.Int63() >> 32)
		r := v % m
		if v-r <= 1<<31-m {
			return r
		}
	}
}

// checkChase validates a chase and rejects one past the plan limit.
func checkChase(cfg ChaseConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Elements >= maxPlanElements {
		return fmt.Errorf("cachesim: chase of %d elements exceeds the plan limit", cfg.Elements)
	}
	return nil
}

// buildPerm returns the successor array of the Sattolo single-cycle
// permutation that BuildChain walks. The planned path never builds it:
// analysis 3 reads the same order off the draws, and BuildChain's swaps and
// walk are the independent check that it does.
func buildPerm(cfg ChaseConfig) ([]int32, error) {
	if err := checkChase(cfg); err != nil {
		return nil, err
	}
	n := cfg.Elements
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

// allHit reports whether level f, the first level skipLevels leaves, serves
// every measured access of the chase (analysis 4): level f and the last
// level each receive at most `ways` distinct lines in every set. False when
// the stride is narrower than a line, and when no level is left.
func allHit(cfgs []LevelConfig, cfg ChaseConfig, lineShift uint, f int) bool {
	if cfg.StrideBytes < cfgs[0].LineSize || f == len(cfgs) {
		return false
	}
	return allSetsFit(cfgs[f], cfg, lineShift) && allSetsFit(cfgs[len(cfgs)-1], cfg, lineShift)
}

// allSetsOverflow reports whether every set of the level touched by the
// chase receives strictly more distinct lines than the level has ways.
func allSetsOverflow(lc LevelConfig, cfg ChaseConfig, lineShift uint) bool {
	least, _ := setLoads(lc, cfg, lineShift)
	return least > uint64(lc.Ways)
}

// allSetsFit reports whether no set of the level receives more distinct
// lines than the level has ways.
func allSetsFit(lc LevelConfig, cfg ChaseConfig, lineShift uint) bool {
	_, most := setLoads(lc, cfg, lineShift)
	return most <= uint64(lc.Ways)
}

// setLoads returns the fewest and the most lines any set of the level
// touched by the chase receives. Caller guarantees stride >= line size,
// which makes the chase's lines distinct, so per-set element counts are
// per-set distinct-line counts.
//
// For line-aligned strides the counts are closed-form: with q lines per
// step the i-th element lands in set (base-line + i*q) mod S, a sequence of
// period S/gcd(q,S) that distributes elements evenly — every visited set
// receives floor(n/period) or one more, and at least one. The O(n) count is
// the fallback for strides that straddle line boundaries.
func setLoads(lc LevelConfig, cfg ChaseConfig, lineShift uint) (least, most uint64) {
	nsets := uint64(lc.Sets())
	n := uint64(cfg.Elements)
	if cfg.StrideBytes%lc.LineSize == 0 {
		// (base + i*q*L) >> shift == base>>shift + i*q exactly: multiples
		// of the line size never carry into the low shift bits.
		q := uint64(cfg.StrideBytes / lc.LineSize)
		period := nsets / gcd(q%nsets, nsets)
		return max(n/period, 1), (n + period - 1) / period
	}
	counts := make([]uint64, nsets)
	for i := uint64(0); i < n; i++ {
		counts[((cfg.Base+i*uint64(cfg.StrideBytes))>>lineShift)%nsets]++
	}
	least = n
	for _, c := range counts {
		if c != 0 {
			least, most = min(least, c), max(most, c)
		}
	}
	return least, most
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
func shardable[C interface{ Sets() int }](cfgs []C) bool {
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

// residue returns key's group: key mod mod, through mask when mod is a
// power of two, and 0 when the component is not sharded (mod == 0).
func residue(key, mask, mod uint64) int {
	switch {
	case mask != 0:
		return int(key & mask)
	case mod != 0:
		return int(key % mod)
	}
	return 0
}

// countGroups adds to counts[g] how many of the chase's elements have a key,
// (base + i*stride) >> shift, in residue group g. Keys rise with i, so the
// count steps from one key's run of elements to the next: one step per page
// for a TLB key and a stride below the page size.
func countGroups(counts []int32, cfg ChaseConfig, shift uint, mask, mod uint64) {
	base, stride, n := cfg.Base, uint64(cfg.StrideBytes), uint64(cfg.Elements)
	for i := uint64(0); i < n; {
		key := (base + i*stride) >> shift
		end := i + 1
		if stride < 1<<shift {
			// The first element whose address reaches the next key.
			end = min(((key+1)<<shift-base+stride-1)/stride, n)
		}
		counts[residue(key, mask, mod)] += int32(end - i)
		i = end
	}
}

// buildPlan materializes the execution plan for one chase under the given
// (validated) geometries. tlbCfgs may be empty.
func buildPlan(cfgs []LevelConfig, tlbCfgs []TLBConfig, cfg ChaseConfig, lineShift uint) (*chasePlan, error) {
	if err := checkChase(cfg); err != nil {
		return nil, err
	}
	n := cfg.Elements
	p := &chasePlan{cfg: cfg, firstSim: skipLevels(cfgs, cfg, lineShift)}
	p.allHit = allHit(cfgs, cfg, lineShift, p.firstSim)

	// Decide the grouping for each component: nGroups==1 replays the whole
	// traversal as one stream (sharding inapplicable or not worth it).
	cacheGroups, tlbGroups := 0, 0
	var cacheMod, tlbMod uint64
	if p.firstSim < len(cfgs) && !p.allHit {
		cacheGroups = 1
		if n >= planShardMin && shardable(cfgs[p.firstSim:]) {
			cacheGroups = cfgs[p.firstSim].Sets()
			cacheMod = uint64(cacheGroups)
		}
	}
	var pageBits uint
	if len(tlbCfgs) > 0 {
		pageBits = tlbCfgs[0].PageBits
		tlbGroups = 1
		if n >= planShardMin && shardable(tlbCfgs) {
			tlbGroups = tlbCfgs[0].Sets()
			tlbMod = uint64(tlbGroups)
		}
	}
	if cacheGroups == 0 && tlbGroups == 0 {
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
	// Group sizes first (order-independent), then one pass over the
	// traversal order placing each key — a counting sort per component
	// sharing the single pass.
	cacheCounts := make([]int32, cacheGroups)
	tlbCounts := make([]int32, tlbGroups)
	if cacheGroups > 0 {
		countGroups(cacheCounts, cfg, lineShift, cacheMask, cacheMod)
	}
	if tlbGroups > 0 {
		countGroups(tlbCounts, cfg, pageBits, tlbMask, tlbMod)
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
	// The traversal's scratch is a key buffer, which the placing pass then
	// overwrites.
	work := p.tlbKeys
	if work == nil {
		work = p.cacheKeys
	}
	order := make([]uint32, n)
	traversal(cfg.Seed, order, work)
	for _, x := range order {
		addr := cfg.Base + uint64(x)*stride
		if cacheGroups > 0 {
			line := addr >> lineShift
			g := residue(line, cacheMask, cacheMod)
			p.cacheKeys[cacheCur[g]] = uint32(line)
			cacheCur[g]++
		}
		if tlbGroups > 0 {
			vpn := addr >> pageBits
			g := residue(vpn, tlbMask, tlbMod)
			p.tlbKeys[tlbCur[g]] = uint32(vpn)
			tlbCur[g]++
		}
	}
	return p, nil
}

// chaseMemoEntries bounds the results the chase memo retains: a few hundred
// bytes each; the shipped dcache sweep at four threads fills 64.
const chaseMemoEntries = 4096

// chaseMemo maps a chase's identity to its result. Results are pure
// functions of their key, so eviction — first in, first out over a fixed
// ring — changes only cost, never bytes. Plans are not kept: every
// (thread, point) has its own chain seed, so a plan is never replayed twice
// within a collection, and a later collection needs only the result.
var chaseMemo = struct {
	sync.Mutex
	entries map[string]*memoEntry
	ring    [chaseMemoEntries]*memoEntry
	next    int
}{entries: map[string]*memoEntry{}}

// memoEntry is one chase's memo slot. The call that created it runs the
// chase and settles the entry; concurrent calls for the same key wait on
// done, so duplicate misses coalesce.
type memoEntry struct {
	key  string
	cfg  ChaseConfig
	done chan struct{}
	res  *ChaseResult
	err  error
}

// claimChase returns the memo entry for a chase, and whether the caller
// created it and so must run the chase and settle the entry. The key is the
// full geometry, the chase tuple and the measured pass count.
func claimChase(cfgs []LevelConfig, tlbCfgs []TLBConfig, cfg ChaseConfig, passes int) (*memoEntry, bool) {
	var b strings.Builder
	for _, c := range cfgs {
		fmt.Fprintf(&b, "%d/%d/%d;", c.Size, c.Ways, c.LineSize)
	}
	b.WriteString("|")
	for _, c := range tlbCfgs {
		fmt.Fprintf(&b, "%d/%d/%d;", c.Entries, c.Ways, c.PageBits)
	}
	fmt.Fprintf(&b, "|n=%d,s=%d,b=%d,seed=%d,passes=%d", cfg.Elements, cfg.StrideBytes, cfg.Base, cfg.Seed, passes)
	key := b.String()
	chaseMemo.Lock()
	defer chaseMemo.Unlock()
	if e := chaseMemo.entries[key]; e != nil {
		return e, false
	}
	e := &memoEntry{key: key, cfg: cfg, done: make(chan struct{})}
	if old := chaseMemo.ring[chaseMemo.next]; old != nil && chaseMemo.entries[old.key] == old {
		delete(chaseMemo.entries, old.key)
	}
	chaseMemo.entries[key] = e
	chaseMemo.ring[chaseMemo.next] = e
	chaseMemo.next = (chaseMemo.next + 1) % chaseMemoEntries
	return e, true
}

// settle publishes the outcome of a claimed chase. A failed entry leaves the
// memo first, so only calls already waiting on it see the error and the
// next call runs the chase again.
func (e *memoEntry) settle(res *ChaseResult, err error) {
	if err != nil {
		chaseMemo.Lock()
		if chaseMemo.entries[e.key] == e {
			delete(chaseMemo.entries, e.key)
		}
		chaseMemo.Unlock()
	}
	e.res, e.err = res, err
	close(e.done)
}

// result waits for the entry to settle and returns a copy of its result, so
// no caller can change what the memo serves next.
func (e *memoEntry) result() (*ChaseResult, error) {
	<-e.done
	if e.err != nil {
		return nil, e.err
	}
	r := *e.res
	r.HitRate = append([]float64(nil), r.HitRate...)
	r.MissRate = append([]float64(nil), r.MissRate...)
	r.TLBMissRate = append([]float64(nil), r.TLBMissRate...)
	return &r, nil
}
