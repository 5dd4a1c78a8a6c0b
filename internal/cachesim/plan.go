package cachesim

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
)

// plan.go plans the chases of the optimized collection path (fastrun.go),
// and memoizes the results they produce. A chase's task plans it, builds
// its key streams in its worker's scratch, replays them and settles its memo
// entry; the memo at the end of this file keeps only the chase's result.
// Four exact analyses make the chases fast to run; whatever they cannot
// prove goes through the simulating engine, so results stay bit-identical
// to RunSweepPointTLB:
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
//  2. Key streams from the insertion tree. Each simulated component
//     replays one []uint32 of pre-shifted keys in traversal order — line
//     numbers or VPNs, (Base + x·Stride) >> shift for the element x the
//     chase visits i-th — so replaying a stream is a linear scan. The
//     traversal order itself is read off the tree Sattolo's algorithm
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
//     positions (one scatter, which writes each element's key, not its
//     index). None of the passes is a chain of dependent loads, which is
//     what the walk is, and the draws are the walk's. When both components
//     replay, the scatter writes the finer keys, and the coarser ones are
//     the finer shifted further: right shifts compose exactly.
//
//  3. All-hit levels. Take a chase whose stride covers at least one line
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
//  4. Proven-tail warmup (mtf.go's warmTail; TLB side only). A stream
//     longer than tailWarmKeys warms on its last tailWarmKeys keys instead
//     of the whole traversal, replayed from an empty engine in one part per
//     level. After part p the engine checks that every level-p set the
//     stream's keys map to is full, and that every entry in it was touched
//     after part p−1 ended. Level 0 sees every access, and level p sees
//     exactly level p−1's misses, so by induction level p's input during
//     part p is the input a full warmup gives it at the same point of the
//     traversal; a full set whose entries were all touched in that window
//     holds the last `ways` distinct keys of it, which is what true LRU
//     holds after the full warmup, in the same recency order. The
//     induction needs fills that never cascade: back-invalidation can
//     remove an entry a full warmup would keep, so the engine refuses a
//     tail warmup when it is inclusive, and the cache side always warms in
//     full. A stream that fails the check — a set the tail did not fill,
//     or an entry left over from an earlier part — goes back through a
//     reset engine and a full warmup. The sets a stream maps to are found
//     from its keys; the scan of a level stops once it has found all of
//     them. A set can only be full if at least `ways` of the stream's
//     pages map to it, so a stream whose pages are too few for some set it
//     maps to fails the check at any tail length; the plan finds those in
//     closed form (pagesFill) and warms them in full without trying.
type chasePlan struct {
	cfg ChaseConfig
	// firstSim is the first cache level needing real simulation; levels
	// above it are provably all-miss. len(levels) means the whole cache
	// side is arithmetic.
	firstSim int
	// allHit reports that level firstSim serves every measured access
	// (analysis 3): the cache side is arithmetic.
	allHit bool
	// cache and tlb report which components replay a key stream; shift is
	// the smaller of their key shifts, the one the traversal scatters at.
	cache, tlb bool
	shift      uint
	// tail reports that the TLB side may warm on a proven tail: its pages
	// can fill every set they map to (analysis 4, pagesFill).
	tail bool
}

// replays reports whether the chase replays any key stream.
func (p *chasePlan) replays() bool { return p.cache || p.tlb }

// maxPlanElements bounds chases the plan path accepts: keys are stored as
// uint32. The plan path is the only production engine, so a chase past
// this limit fails with the plan-limit error at every worker count.
const maxPlanElements = 1 << 31

// planChase validates a chase and runs the analyses that need no key
// stream (1 and 3) under the given (validated) geometries; tlbCfgs may be
// empty. A chase whose keys would not fit the uint32 stream slots fails with
// the plan-limit error.
func planChase(cfgs []LevelConfig, tlbCfgs []TLBConfig, cfg ChaseConfig, lineShift uint) (chasePlan, error) {
	if err := checkChase(cfg); err != nil {
		return chasePlan{}, err
	}
	p := chasePlan{cfg: cfg, firstSim: skipLevels(cfgs, cfg, lineShift), shift: lineShift}
	p.allHit = allHit(cfgs, cfg, lineShift, p.firstSim)
	p.cache = p.firstSim < len(cfgs) && !p.allHit
	p.tlb = len(tlbCfgs) > 0
	if p.tlb && (!p.cache || tlbCfgs[0].PageBits < lineShift) {
		p.shift = tlbCfgs[0].PageBits
	}
	p.tail = p.tlb && pagesFill(tlbCfgs, cfg)
	// The smallest shift produces the largest key.
	if p.replays() && (cfg.Base+uint64(cfg.Elements-1)*uint64(cfg.StrideBytes))>>p.shift > 1<<32-1 {
		return chasePlan{}, fmt.Errorf("cachesim: chase footprint at base %#x exceeds the plan limit", cfg.Base)
	}
	return p, nil
}

// traversal writes the chase's key stream into keys — keys[i] is
// (Base + x·Stride) >> shift for the element x the chase visits i-th,
// starting at element 0 — without walking the cycle (analysis 2). It
// consumes the same draws as buildPerm, so the order is the walk of
// buildPerm's cycle. keys and work hold one slot per element; both are
// overwritten, and the caller guarantees the keys fit.
func traversal(cfg ChaseConfig, shift uint, keys, work []uint32) {
	n := len(keys)
	// Draws and subtree sizes, k = n−1 … 1: keys[k] = parent(k) = j_k, and
	// work[x] counts x's descendants. A child has a larger index than its
	// parent, so work[k] is final when k is drawn.
	clear(work)
	src := rand.NewSource(cfg.Seed)
	for k := n - 1; k > 0; k-- {
		j := intn(src, uint32(k))
		keys[k] = j
		work[j] += work[k] + 1
	}
	// Block cursors, k = 1 … n−1 (parents first, children in index order):
	// k's block starts at its parent's cursor, which then moves past the
	// block; k's own cursor starts there. Once every child has taken its
	// block, work[x] is the last slot of x's block, x's own post-order slot,
	// counted from 0 after element 0.
	work[0] = 0
	for k := 1; k < n; k++ {
		j := keys[k]
		c := work[j]
		work[j] = c + work[k] + 1
		work[k] = c
	}
	// The scatter reads no parent, so it may overwrite them.
	base, stride := cfg.Base, uint64(cfg.StrideBytes)
	keys[0] = uint32(base >> shift)
	for x := 1; x < n; x++ {
		keys[work[x]+1] = uint32((base + uint64(x)*stride) >> shift)
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
// analysis 2 reads the same order off the draws, and BuildChain's swaps and
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
// every measured access of the chase (analysis 3): level f and the last
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

// pagesFill reports whether the chase's pages can fill every set they map
// to at every TLB level, which a proven tail needs (analysis 4). With a
// stride of at most a page the chase touches every page from its first to
// its last, and a contiguous run of pages spreads over a level's S sets as
// setLoads' lines do with one line per step: every set it maps to receives
// floor(pages/S) or one more, and at least one. A wider stride is left to
// the check itself.
func pagesFill(tlbCfgs []TLBConfig, cfg ChaseConfig) bool {
	pageBits := tlbCfgs[0].PageBits
	if uint64(cfg.StrideBytes) > 1<<pageBits {
		return true
	}
	first := cfg.Base >> pageBits
	last := (cfg.Base + uint64(cfg.Elements-1)*uint64(cfg.StrideBytes)) >> pageBits
	pages := last - first + 1
	for _, c := range tlbCfgs {
		if max(pages/uint64(c.Sets()), 1) < uint64(c.Ways) {
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

// chaseMemoEntries bounds the results the chase memo retains: a few hundred
// bytes each; the shipped dcache sweep at four threads fills 64.
const chaseMemoEntries = 4096

// chaseMemo maps a chase's identity to its result. Results are pure
// functions of their key, so eviction — first in, first out over a fixed
// ring — changes only cost, never bytes. Key streams are not kept: every
// (thread, point) has its own chain seed, so a stream is never replayed for
// a second chase, and a later collection needs only the result.
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
// full geometry, the chase tuple and the measured pass count; it is built on
// the stack, so a memo hit allocates nothing.
func claimChase(cfgs []LevelConfig, tlbCfgs []TLBConfig, cfg ChaseConfig, passes int) (*memoEntry, bool) {
	var buf [192]byte
	b := buf[:0]
	for _, c := range cfgs {
		b = appendKey(b, ';', int64(c.Size), int64(c.Ways), int64(c.LineSize))
	}
	b = append(b, '|')
	for _, c := range tlbCfgs {
		b = appendKey(b, ';', int64(c.Entries), int64(c.Ways), int64(c.PageBits))
	}
	b = append(b, '|')
	b = appendKey(b, ',', int64(cfg.Elements), int64(cfg.StrideBytes), int64(cfg.Base), cfg.Seed, int64(passes))
	chaseMemo.Lock()
	defer chaseMemo.Unlock()
	if e := chaseMemo.entries[string(b)]; e != nil {
		return e, false
	}
	key := string(b)
	e := &memoEntry{key: key, cfg: cfg, done: make(chan struct{})}
	if old := chaseMemo.ring[chaseMemo.next]; old != nil && chaseMemo.entries[old.key] == old {
		delete(chaseMemo.entries, old.key)
	}
	chaseMemo.entries[key] = e
	chaseMemo.ring[chaseMemo.next] = e
	chaseMemo.next = (chaseMemo.next + 1) % chaseMemoEntries
	return e, true
}

// appendKey appends each of vs to b in decimal, followed by sep.
func appendKey(b []byte, sep byte, vs ...int64) []byte {
	for _, v := range vs {
		b = append(strconv.AppendInt(b, v, 10), sep)
	}
	return b
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
