package cachesim

// fastsim.go is the allocation-conscious chase engine behind the optimized
// sweep runner (fastrun.go): flat tag/stamp storage replaces the reference
// simulator's per-set slices, true-LRU order is carried by monotonically
// increasing access stamps instead of slice shuffles, and the whole state
// resets in O(1) by raising a liveness floor — which is what lets a worker
// pool recycle one engine across thousands of residue-class chunks without
// re-zeroing megabytes of arrays. Semantics are bit-identical to
// Hierarchy.Access / TLBHierarchy.Translate; the equivalence property tests
// in fast_test.go drive both engines access-by-access and compare.

// fastLevel is one set-associative level in flat layout: slot j of set s
// lives at index s*ways+j of tags and stamps. A slot is live iff its stamp
// is >= the owning engine's floor, so stale entries from earlier chases need
// no erasing. mask strength-reduces the set modulo when nsets is a power of
// two (every shipped geometry); the modulo fallback keeps odd test
// geometries exact.
type fastLevel struct {
	ways   uint64
	nsets  uint64
	mask   uint64 // nsets-1 when nsets is a power of two, else 0
	tags   []uint64
	stamps []uint64
	hits   uint64
	misses uint64
	// marks[s] == the engine's epoch flags set s as one the group under
	// warmTail maps keys to. Allocated on the engine's first warmTail and
	// reused by every later one.
	marks []uint64
}

func newFastLevel(nsets, ways int) fastLevel {
	l := fastLevel{
		ways:   uint64(ways),
		nsets:  uint64(nsets),
		tags:   make([]uint64, nsets*ways),
		stamps: make([]uint64, nsets*ways),
	}
	if n := uint64(nsets); n&(n-1) == 0 {
		l.mask = n - 1
	}
	return l
}

// set returns the index of the set holding key.
func (l *fastLevel) set(key uint64) uint64 {
	if l.mask != 0 {
		return key & l.mask
	}
	return key % l.nsets
}

// setBase returns the first slot index of the set holding key.
func (l *fastLevel) setBase(key uint64) uint64 { return l.set(key) * l.ways }

// probe returns the slot index of a live entry for key, or -1. Only one live
// copy of a key can exist per level (fill is guarded by a failed probe), so
// the first live match is the only one.
func (l *fastLevel) probe(key, floor uint64) int {
	base := l.setBase(key)
	tags := l.tags[base : base+l.ways]
	stamps := l.stamps[base : base+l.ways]
	for j := range tags {
		if tags[j] == key && stamps[j] >= floor {
			return int(base) + j
		}
	}
	return -1
}

// fill inserts key at MRU (the fresh stamp), replacing the least-recently
// used slot. Stale slots carry stamps below the floor, so they are always
// preferred over live lines — exactly the reference's fill-empty-first —
// and among live lines the minimum stamp is the LRU line. It reports the
// replaced tag and whether it was live (a real eviction in the reference's
// sense; overwriting an empty or stale slot evicts nothing).
func (l *fastLevel) fill(key, stamp, floor uint64) (victim uint64, evicted bool) {
	base := l.setBase(key)
	vi, vs := base, l.stamps[base]
	for j := base + 1; j < base+l.ways; j++ {
		if l.stamps[j] < vs {
			vi, vs = j, l.stamps[j]
		}
	}
	victim, evicted = l.tags[vi], vs >= floor
	l.tags[vi] = key
	l.stamps[vi] = stamp
	return victim, evicted
}

// invalidate removes a live entry for key if present (stamps it dead).
func (l *fastLevel) invalidate(key, floor uint64) {
	base := l.setBase(key)
	tags := l.tags[base : base+l.ways]
	stamps := l.stamps[base : base+l.ways]
	for j := range tags {
		if tags[j] == key && stamps[j] >= floor {
			stamps[j] = 0
			return
		}
	}
}

// fastSim simulates a multi-level true-LRU hierarchy: the cache hierarchy
// when backInval is set (inclusive — a live eviction from the last level
// back-invalidates the levels above it), the TLB hierarchy otherwise (fills
// propagate, evictions don't cascade). bottom counts accesses that missed
// every level: memory accesses for caches, page walks for TLBs.
type fastSim struct {
	levels    []fastLevel
	shift     uint // line shift (caches) or page bits (TLBs)
	backInval bool
	clock     uint64
	floor     uint64
	bottom    uint64
	accesses  uint64
	epoch     uint64 // marks equal to it flag the sets of warmTail's current group
}

// newFastCacheSim builds the engine for the cache levels cfgs (which may be
// a tail of the full hierarchy when upper levels are provably all-miss; see
// plan.go). cfgs must already be validated.
func newFastCacheSim(cfgs []LevelConfig, lineShift uint) *fastSim {
	s := &fastSim{shift: lineShift, backInval: true}
	for _, cfg := range cfgs {
		s.levels = append(s.levels, newFastLevel(cfg.Sets(), cfg.Ways))
	}
	s.resetState()
	return s
}

// newFastTLBSim builds the engine for a validated TLB hierarchy.
func newFastTLBSim(cfgs []TLBConfig) *fastSim {
	s := &fastSim{shift: cfgs[0].PageBits}
	for _, cfg := range cfgs {
		s.levels = append(s.levels, newFastLevel(cfg.Sets(), cfg.Ways))
	}
	s.resetState()
	return s
}

// access performs one demand access of the already-shifted key (line number
// or VPN) and returns the level index that served it, or len(levels) for
// the bottom (memory / page walk). It mirrors Hierarchy.Access and
// TLBHierarchy.Translate line for line.
func (s *fastSim) access(key uint64) int {
	s.accesses++
	s.clock++
	stamp := s.clock
	nl := len(s.levels)
	hit := nl
	for i := 0; i < nl; i++ {
		l := &s.levels[i]
		if slot := l.probe(key, s.floor); slot >= 0 {
			l.stamps[slot] = stamp
			l.hits++
			hit = i
			break
		}
		l.misses++
	}
	if hit == nl {
		s.bottom++
	}
	for i := hit - 1; i >= 0; i-- {
		victim, evicted := s.levels[i].fill(key, stamp, s.floor)
		if evicted && s.backInval && i == nl-1 {
			for j := 0; j < i; j++ {
				s.levels[j].invalidate(victim, s.floor)
			}
		}
	}
	return hit
}

// replay performs one traversal over a stream of already-shifted keys,
// dispatching to a fused kernel when the geometry allows (one or two levels,
// power-of-two set counts, ways small enough for the victim encoding — every
// shipped geometry and every post-skip tail of one). The kernels replicate
// access exactly — same probe order, same victim tie-break, same stamp
// values — they only collapse the per-access function calls into one loop
// with the level state held in locals. The dispatcher and both kernels are
// pinned to access by TestReplayMatchesAccess across geometries,
// pow2/non-pow2 set counts, and both backInval modes.
func (s *fastSim) replay(keys []uint32) {
	switch {
	case len(s.levels) == 1 && s.levels[0].kernelable():
		s.replay1(keys)
	case len(s.levels) == 2 && s.levels[0].kernelable() && s.levels[1].kernelable():
		if s.levels[0].ways == 4 && s.levels[1].ways == 8 {
			s.replay2w48(keys)
		} else {
			s.replay2(keys)
		}
	default:
		for _, key := range keys {
			s.access(uint64(key))
		}
	}
}

// kernelable reports whether the level fits the fused kernels' fast shape:
// mask-indexable sets and ways within the victim encoding.
func (l *fastLevel) kernelable() bool {
	return l.mask != 0 && l.ways <= victimMask
}

// The kernels track the fill victim branchlessly: each slot's candidacy is
// encoded as stamp<<victimShift | slot and a running minimum selects the
// victim with conditional moves instead of data-dependent branches (the
// victim scan's compare branch is a coin flip on miss-heavy streams and
// mispredicts constantly when taken literally). Stamps of live slots are
// unique clocks, so the encoding preserves fill's exact tie-break: the
// minimum stamp wins, and among equal (stale) stamps the lowest slot —
// fill's first-in-scan-order choice — wins via the OR'd index. ways above
// victimMask (never shipped; ways are 2..16) take the generic loop.
//
// Both kernels count only hits in the loop; misses fall out afterwards
// (every access probes level 0; level 1 is probed exactly by level-0 misses;
// the bottom is reached exactly by last-level misses), which keeps the
// loop-carried state small enough to live in registers.
const (
	victimShift = 6
	victimMask  = 1<<victimShift - 1
)

// victimMin is a branchless unsigned min (the compiler declines to emit
// conditional moves for min-with-a-load, so the select is spelled in
// arithmetic). Valid for operands below 2^63 — encoded victims are
// clock<<6, far below.
func victimMin(e, v uint64) uint64 {
	d := uint64(int64(v-e) >> 63) // all-ones iff v < e
	return e ^ (d & (e ^ v))
}

// replay1 is the single-level kernel: the fill victim (first minimum-stamp
// slot in scan order — stale-first, then LRU) is computed during the probe
// scan, so a miss costs one pass over the set instead of two. With one level
// the back-invalidation cascade has no upper levels to touch, so backInval
// needs no handling here.
func (s *fastSim) replay1(keys []uint32) {
	l := &s.levels[0]
	ways, mask := l.ways, l.mask
	tags, stamps := l.tags, l.stamps
	floor, clock := s.floor, s.clock
	var hits uint64
outer:
	for _, k := range keys {
		key := uint64(k)
		sb := (key & mask) * ways
		clock++
		t := tags[sb : sb+ways]
		st := stamps[sb : sb+ways]
		e := st[0] << victimShift
		for j := range t {
			if t[j] == key && st[j] >= floor {
				st[j] = clock
				hits++
				continue outer
			}
			e = victimMin(e, st[j]<<victimShift|uint64(j))
		}
		vi := e & victimMask
		t[vi] = key
		st[vi] = clock
	}
	misses := uint64(len(keys)) - hits
	l.hits += hits
	l.misses += misses
	s.bottom += misses
	s.accesses += uint64(len(keys))
	s.clock = clock
}

// replay2 is the two-level kernel (the shipped DTLB+STLB shape, and cache
// tails with one provably-all-miss level skipped). Probe and victim scans
// fuse per level; when a last-level eviction back-invalidates under
// backInval, the level-0 victim is rescanned because the invalidation may
// have freed a slot in the very set being filled — exactly the state the
// reference sees when it runs fill after the cascade.
func (s *fastSim) replay2(keys []uint32) {
	l0, l1 := &s.levels[0], &s.levels[1]
	ways0, mask0 := l0.ways, l0.mask
	ways1, mask1 := l1.ways, l1.mask
	tags0, stamps0 := l0.tags, l0.stamps
	tags1, stamps1 := l1.tags, l1.stamps
	floor, clock := s.floor, s.clock
	backInval := s.backInval
	var hits0, hits1, bottom uint64
outer:
	for _, k := range keys {
		key := uint64(k)
		clock++
		sb0 := (key & mask0) * ways0
		t0 := tags0[sb0 : sb0+ways0]
		s0 := stamps0[sb0 : sb0+ways0]
		e0 := s0[0] << victimShift
		for j := range t0 {
			if t0[j] == key && s0[j] >= floor {
				s0[j] = clock
				hits0++
				continue outer
			}
			e0 = victimMin(e0, s0[j]<<victimShift|uint64(j))
		}
		sb1 := (key & mask1) * ways1
		t1 := tags1[sb1 : sb1+ways1]
		s1 := stamps1[sb1 : sb1+ways1]
		e1 := s1[0] << victimShift
		hit1 := -1
		for j := range t1 {
			if t1[j] == key && s1[j] >= floor {
				hit1 = j
				break
			}
			e1 = victimMin(e1, s1[j]<<victimShift|uint64(j))
		}
		if hit1 >= 0 {
			s1[hit1] = clock
			hits1++
		} else {
			bottom++
			v1 := e1 & victimMask
			victim, evicted := t1[v1], e1>>victimShift >= floor
			t1[v1] = key
			s1[v1] = clock
			if evicted && backInval {
				l0.invalidate(victim, floor)
				// The cascade may have staled a slot in key's own level-0
				// set; redo the victim scan over the updated stamps.
				e0 = s0[0] << victimShift
				for j := 1; j < len(s0); j++ {
					e0 = victimMin(e0, s0[j]<<victimShift|uint64(j))
				}
			}
		}
		v0 := e0 & victimMask
		t0[v0] = key
		s0[v0] = clock
	}
	n := uint64(len(keys))
	misses0 := n - hits0
	l0.hits += hits0
	l0.misses += misses0
	l1.hits += hits1
	l1.misses += misses0 - hits1
	s.bottom += bottom
	s.accesses += n
	s.clock = clock
}

// replay2w48 is replay2 specialized for 4-way level 0 over 8-way level 1 —
// the shipped DTLB+STLB geometry, which carries ~90% of a DCache collection's
// simulated accesses. Unrolling lets the victim minimum reduce as a tree
// (depth 2 and 3) instead of a serial chain (length 4 and 8): victimMin's
// arithmetic select has multi-cycle latency, and on the dominant miss path
// the chained version's critical path is exactly that chain. min over the
// same stamp<<shift|slot candidates is associative, so the tree picks the
// identical victim, tie-breaks included.
func (s *fastSim) replay2w48(keys []uint32) {
	l0, l1 := &s.levels[0], &s.levels[1]
	mask0, mask1 := l0.mask, l1.mask
	tags0, stamps0 := l0.tags, l0.stamps
	tags1, stamps1 := l1.tags, l1.stamps
	floor, clock := s.floor, s.clock
	backInval := s.backInval
	var hits0, hits1, bottom uint64
	for _, k := range keys {
		key := uint64(k)
		clock++
		b0 := (key & mask0) * 4
		t0 := tags0[b0 : b0+4 : b0+4]
		s0 := stamps0[b0 : b0+4 : b0+4]
		if t0[0] == key && s0[0] >= floor {
			s0[0] = clock
			hits0++
			continue
		}
		if t0[1] == key && s0[1] >= floor {
			s0[1] = clock
			hits0++
			continue
		}
		if t0[2] == key && s0[2] >= floor {
			s0[2] = clock
			hits0++
			continue
		}
		if t0[3] == key && s0[3] >= floor {
			s0[3] = clock
			hits0++
			continue
		}
		e0 := victimMin(victimMin(s0[0]<<victimShift, s0[1]<<victimShift|1),
			victimMin(s0[2]<<victimShift|2, s0[3]<<victimShift|3))
		b1 := (key & mask1) * 8
		t1 := tags1[b1 : b1+8 : b1+8]
		s1 := stamps1[b1 : b1+8 : b1+8]
		hit1 := -1
		switch {
		case t1[0] == key && s1[0] >= floor:
			hit1 = 0
		case t1[1] == key && s1[1] >= floor:
			hit1 = 1
		case t1[2] == key && s1[2] >= floor:
			hit1 = 2
		case t1[3] == key && s1[3] >= floor:
			hit1 = 3
		case t1[4] == key && s1[4] >= floor:
			hit1 = 4
		case t1[5] == key && s1[5] >= floor:
			hit1 = 5
		case t1[6] == key && s1[6] >= floor:
			hit1 = 6
		case t1[7] == key && s1[7] >= floor:
			hit1 = 7
		}
		if hit1 >= 0 {
			s1[hit1] = clock
			hits1++
		} else {
			bottom++
			e1 := victimMin(
				victimMin(victimMin(s1[0]<<victimShift, s1[1]<<victimShift|1),
					victimMin(s1[2]<<victimShift|2, s1[3]<<victimShift|3)),
				victimMin(victimMin(s1[4]<<victimShift|4, s1[5]<<victimShift|5),
					victimMin(s1[6]<<victimShift|6, s1[7]<<victimShift|7)))
			v1 := e1 & victimMask
			victim, evicted := t1[v1], e1>>victimShift >= floor
			t1[v1] = key
			s1[v1] = clock
			if evicted && backInval {
				l0.invalidate(victim, floor)
				// The cascade may have staled a slot in key's own level-0
				// set; redo the victim scan over the updated stamps.
				e0 = victimMin(victimMin(s0[0]<<victimShift, s0[1]<<victimShift|1),
					victimMin(s0[2]<<victimShift|2, s0[3]<<victimShift|3))
			}
		}
		v0 := e0 & victimMask
		t0[v0] = key
		s0[v0] = clock
	}
	n := uint64(len(keys))
	misses0 := n - hits0
	l0.hits += hits0
	l0.misses += misses0
	l1.hits += hits1
	l1.misses += misses0 - hits1
	s.bottom += bottom
	s.accesses += n
	s.clock = clock
}

// tailWarmKeys is the tail length warmTail replays of a residue group
// (plan.go analysis 5). Every Mem-region TLB group of the shipped sweep
// passes the check at this length with room to spare: at seed 1 and four
// threads, 256-key tails still pass all 256 groups, and 128-key tails fail
// 9. A failed check costs its unit a full warmup, never a wrong count.
const tailWarmKeys = 1024

// warmTail warms the engine for one residue group — keys in traversal
// order, touching sets no other key replayed since the last reset touches —
// on only its last tail keys, and reports whether the check of plan.go
// analysis 5 proved the resulting state equal to a full warmup's. A group
// of at most tail keys replays in full and needs no proof. On false the
// group's sets hold a partial state: the caller must reset the engine and
// warm in full. Engines with back-invalidation never qualify.
func (s *fastSim) warmTail(keys []uint32, tail int) bool {
	if len(keys) <= tail {
		s.replay(keys)
		return true
	}
	if s.backInval {
		return false
	}
	s.markSets(keys)
	keys = keys[len(keys)-tail:]
	nl := len(s.levels)
	for p := range s.levels {
		since := s.clock + 1
		s.replay(keys[p*tail/nl : (p+1)*tail/nl])
		if !s.levels[p].settled(s.epoch, since) {
			return false
		}
	}
	return true
}

// markSets flags, at every level, the sets that keys map to.
func (s *fastSim) markSets(keys []uint32) {
	s.epoch++
	for i := range s.levels {
		l := &s.levels[i]
		if l.marks == nil {
			l.marks = make([]uint64, l.nsets)
		}
		for _, k := range keys {
			l.marks[l.set(uint64(k))] = s.epoch
		}
	}
}

// settled reports whether every set marked in epoch is full of entries
// stamped at or after since. A slot stamped at or after since is live, so
// a settled set is a full one.
func (l *fastLevel) settled(epoch, since uint64) bool {
	for set, m := range l.marks {
		if m != epoch {
			continue
		}
		base := uint64(set) * l.ways
		for _, st := range l.stamps[base : base+l.ways] {
			if st < since {
				return false
			}
		}
	}
	return true
}

// resetCounters zeroes hit/miss/bottom/access counters, keeping contents —
// the warmup-to-measured transition.
func (s *fastSim) resetCounters() {
	for i := range s.levels {
		s.levels[i].hits, s.levels[i].misses = 0, 0
	}
	s.bottom, s.accesses = 0, 0
}

// resetState empties every level in O(1): raising the floor above every
// stamp issued so far marks all slots stale. Counters reset too. A fresh
// engine and a reset engine are indistinguishable.
func (s *fastSim) resetState() {
	s.floor = s.clock + 1
	s.resetCounters()
}
