package cachesim

// mtf.go is the replay engine behind the optimized sweep runner (fastrun.go),
// for both sides of a chase: a move-to-front engine. Each set keeps its tags
// in recency order, most recent first, exactly as Hierarchy's and
// TLBHierarchy's per-set slices do, but in one flat array per level. A hit
// rotates the prefix up to the hit to the front; a miss shifts the whole set
// down one slot, dropping the LRU tag, and puts the new tag in front. No
// stamp scan picks a victim: the victim is always the last slot. A cache
// engine is inclusive, as Hierarchy is: a tag its last level drops leaves
// every level above it. TLB fills never cascade. Semantics are bit-identical
// to Hierarchy.Access and TLBHierarchy.Translate; fast_test.go drives the
// engine against both access by access and compares every set.

// emptyTag marks an unused slot: keys are uint32, so no key equals it.
const emptyTag = 1 << 32

// mtfLevel is one level in flat layout: slot j of set s lives at index
// s*ways+j of tags, slot 0 the most recent. mask strength-reduces the set
// modulo when nsets is a power of two (every shipped geometry); the modulo
// fallback keeps odd test geometries exact.
type mtfLevel struct {
	ways   uint64
	nsets  uint64
	mask   uint64 // nsets-1 when nsets is a power of two, else 0
	tags   []uint64
	hits   uint64
	misses uint64
	// stamps[i] is the engine clock when tags[i] last moved to the front.
	// Only access writes them, and it moves them with their tags; the
	// unrolled kernel leaves them alone, and back-invalidation moves tags
	// without them. warmTail's proof reads only stamps access wrote since a
	// part began, on an engine that never back-invalidates, so that is
	// enough.
	stamps []uint64
	// marks[s] == the engine's epoch flags set s as one the group under
	// warmTail maps keys to. Allocated on the engine's first warmTail and
	// reused by every later one.
	marks []uint64
}

func newMTFLevel(nsets, ways int) mtfLevel {
	n := uint64(nsets)
	l := mtfLevel{
		ways:   uint64(ways),
		nsets:  n,
		tags:   make([]uint64, nsets*ways),
		stamps: make([]uint64, nsets*ways),
	}
	if n&(n-1) == 0 {
		l.mask = n - 1
	}
	return l
}

// set returns the index of the set holding key.
func (l *mtfLevel) set(key uint64) uint64 {
	if l.mask != 0 {
		return key & l.mask
	}
	return key % l.nsets
}

// touch moves key to the front of its set, stamped with clock, and returns
// the tag it carried out of the set: key itself on a hit, and on a miss the
// LRU tag the fill dropped, emptyTag if the set had room. One pass carries
// each slot's tag down to the next slot until it lifts out key itself: a
// hit rotates the slots above key down by one, and a miss carries the LRU
// tag out of the set.
func (l *mtfLevel) touch(key, clock uint64) uint64 {
	base := l.set(key) * l.ways
	tags := l.tags[base : base+l.ways]
	stamps := l.stamps[base : base+l.ways]
	tag, stamp := key, clock
	for j := range tags {
		tags[j], tag = tag, tags[j]
		stamps[j], stamp = stamp, stamps[j]
		if tag == key {
			break
		}
	}
	return tag
}

// remove deletes tag from its set, if it is there, and reports whether it
// was: the entries after it shift up one slot and the LRU slot empties.
func (l *mtfLevel) remove(tag uint64) bool {
	base := l.set(tag) * l.ways
	tags := l.tags[base : base+l.ways]
	for j, t := range tags {
		if t == tag {
			copy(tags[j:], tags[j+1:])
			tags[len(tags)-1] = emptyTag
			return true
		}
	}
	return false
}

// mtfSim simulates a cache or TLB hierarchy: each level is probed in turn,
// and every level that misses fills the key. bottom counts accesses that
// missed every level: memory accesses or page walks.
type mtfSim struct {
	levels   []mtfLevel
	clock    uint64 // advanced by access only
	bottom   uint64
	accesses uint64
	epoch    uint64 // marks equal to it flag the sets of warmTail's current group
	// inclusive marks a cache engine: the simulated policy, not a setting.
	// A tag the last level drops leaves every level above it.
	inclusive bool
	// dropped[i] is the tag level i's fill dropped on the current access
	// (inclusive engines only; see backInvalidate).
	dropped []uint64
}

// newMTFSim builds the engine for a validated TLB hierarchy, empty.
func newMTFSim(cfgs []TLBConfig) *mtfSim {
	s := &mtfSim{}
	for _, cfg := range cfgs {
		s.levels = append(s.levels, newMTFLevel(cfg.Sets(), cfg.Ways))
	}
	s.resetState()
	return s
}

// newMTFCacheSim builds the inclusive engine for validated cache levels —
// a tail of the hierarchy when analysis 1 proves the levels above it
// all-miss (plan.go) — empty.
func newMTFCacheSim(cfgs []LevelConfig) *mtfSim {
	s := &mtfSim{inclusive: true, dropped: make([]uint64, len(cfgs))}
	for _, cfg := range cfgs {
		s.levels = append(s.levels, newMTFLevel(cfg.Sets(), cfg.Ways))
	}
	s.resetState()
	return s
}

// access performs one access of an already-shifted key (a line or a VPN)
// and returns the level that served it, or len(levels) for the bottom. A
// level that misses fills the key on the way down, which is the state
// TLBHierarchy.Translate reaches by filling after the probes: each level's
// change depends only on the key. An inclusive engine then back-invalidates
// what its last level dropped.
func (s *mtfSim) access(key uint32) int {
	s.accesses++
	s.clock++
	k := uint64(key)
	for i := range s.levels {
		l := &s.levels[i]
		out := l.touch(k, s.clock)
		if out == k {
			l.hits++
			return i
		}
		l.misses++
		if s.inclusive {
			s.dropped[i] = out
		}
	}
	s.bottom++
	if s.inclusive {
		s.backInvalidate(k)
	}
	return len(s.levels)
}

// backInvalidate removes the tag the last level dropped for key, which
// missed every level, from every level above it. Hierarchy.Access removes
// it before it fills the upper levels, and access has already filled them.
// The two states differ only where the victim shares key's set at an upper
// level: there the reference's fill takes the freed slot and drops
// nothing, so the tag access's fill dropped goes back into the LRU slot.
func (s *mtfSim) backInvalidate(key uint64) {
	last := len(s.levels) - 1
	victim := s.dropped[last]
	if victim == emptyTag {
		return
	}
	for j := range s.levels[:last] {
		l := &s.levels[j]
		if set := l.set(key); l.remove(victim) && l.set(victim) == set {
			l.tags[(set+1)*l.ways-1] = s.dropped[j]
		}
	}
}

// replay performs one traversal over a stream of already-shifted keys: the
// unrolled kernel for a power-of-two 4-way level over a power-of-two 8-way
// level (the shipped DTLB+STLB shape), access per key otherwise. The kernel
// never back-invalidates, so an inclusive engine of that shape takes the
// per-key path. TestReplayMatchesAccess pins both against the references.
func (s *mtfSim) replay(keys []uint32) {
	if !s.inclusive && len(s.levels) == 2 && s.levels[0].mask != 0 && s.levels[1].mask != 0 &&
		s.levels[0].ways == 4 && s.levels[1].ways == 8 {
		s.replay48(keys)
		return
	}
	for _, k := range keys {
		s.access(k)
	}
}

// replay48 is the move-to-front kernel for 4 ways over 8: touch's carry
// pass unrolled slot by slot, with no stamps. Only the carried tag and the
// key are live, so the loop state stays in registers, and a hit at slot i
// costs i+1 stores. (Loading a whole set into locals spills them, and an
// array-literal store is assembled on the stack and copied in wide moves
// that the narrow stores before them cannot forward to.)
//
// Only hits are counted in the loop; misses fall out afterwards (every
// access probes level 0, level 1 sees exactly level 0's misses, and a walk
// is exactly a level-1 miss).
func (s *mtfSim) replay48(keys []uint32) {
	l0, l1 := &s.levels[0], &s.levels[1]
	mask0, mask1 := l0.mask, l1.mask
	tags0, tags1 := l0.tags, l1.tags
	var hits0, hits1 uint64
	for _, k := range keys {
		key := uint64(k)
		b0 := (key & mask0) * 4
		t0 := (*[4]uint64)(tags0[b0 : b0+4])
		c := t0[0]
		t0[0] = key
		if c == key {
			hits0++
			continue
		}
		if c, t0[1] = t0[1], c; c == key {
			hits0++
			continue
		}
		if c, t0[2] = t0[2], c; c == key {
			hits0++
			continue
		}
		if c, t0[3] = t0[3], c; c == key {
			hits0++
			continue
		}
		b1 := (key & mask1) * 8
		t1 := (*[8]uint64)(tags1[b1 : b1+8])
		c = t1[0]
		t1[0] = key
		if c == key {
			hits1++
			continue
		}
		if c, t1[1] = t1[1], c; c == key {
			hits1++
			continue
		}
		if c, t1[2] = t1[2], c; c == key {
			hits1++
			continue
		}
		if c, t1[3] = t1[3], c; c == key {
			hits1++
			continue
		}
		if c, t1[4] = t1[4], c; c == key {
			hits1++
			continue
		}
		if c, t1[5] = t1[5], c; c == key {
			hits1++
			continue
		}
		if c, t1[6] = t1[6], c; c == key {
			hits1++
			continue
		}
		if c, t1[7] = t1[7], c; c == key {
			hits1++
		}
	}
	n := uint64(len(keys))
	misses0 := n - hits0
	l0.hits += hits0
	l0.misses += misses0
	l1.hits += hits1
	l1.misses += misses0 - hits1
	s.bottom += misses0 - hits1
	s.accesses += n
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
// group's sets hold a partial state, which warmTails clears. groups is the
// number of residue groups the group's plan splits the stream into (see
// markSets). The engine must not be inclusive (see warmTails).
func (s *mtfSim) warmTail(keys []uint32, tail, groups int) bool {
	if len(keys) <= tail {
		s.replay(keys)
		return true
	}
	s.markSets(keys, groups)
	keys = keys[len(keys)-tail:]
	nl := len(s.levels)
	for p := range s.levels {
		since := s.clock + 1
		for _, k := range keys[p*tail/nl : (p+1)*tail/nl] {
			s.access(k)
		}
		if !s.levels[p].settled(s.epoch, since) {
			return false
		}
	}
	return true
}

// markSets flags, at every level, the sets that keys — one of groups
// residue groups — map to. A plan splits its stream into groups residue
// classes of level 0's set count S_0, or keeps one group, and S_0 divides
// every lower level's set count S_i when it splits; so one group's keys
// reach at most S_i/groups sets of level i, and the scan stops once it has
// flagged that many.
func (s *mtfSim) markSets(keys []uint32, groups int) {
	s.epoch++
	for i := range s.levels {
		l := &s.levels[i]
		if l.marks == nil {
			l.marks = make([]uint64, l.nsets)
		}
		left := l.nsets / uint64(groups)
		for _, k := range keys {
			if m := &l.marks[l.set(uint64(k))]; *m != s.epoch {
				*m = s.epoch
				if left--; left == 0 {
					break
				}
			}
		}
	}
}

// settled reports whether every set marked in epoch is full of entries
// touched at or after since. Recency order makes that one slot's question:
// the LRU slot holds a tag access stamped at or after since exactly when
// every slot does, and the set is then full.
func (l *mtfLevel) settled(epoch, since uint64) bool {
	for set, m := range l.marks {
		if m != epoch {
			continue
		}
		lru := uint64(set)*l.ways + l.ways - 1
		if l.tags[lru] == emptyTag || l.stamps[lru] < since {
			return false
		}
	}
	return true
}

// resetCounters zeroes hit/miss/walk/access counters, keeping contents —
// the warmup-to-measured transition.
func (s *mtfSim) resetCounters() {
	for i := range s.levels {
		s.levels[i].hits, s.levels[i].misses = 0, 0
	}
	s.bottom, s.accesses = 0, 0
}

// resetState empties every level and zeroes the counters. Stamps stay: the
// clock only rises, so every stamp left behind is older than any part a
// later warmTail checks. A fresh engine and a reset engine are
// indistinguishable.
func (s *mtfSim) resetState() {
	for i := range s.levels {
		tags := s.levels[i].tags
		for j := range tags {
			tags[j] = emptyTag
		}
	}
	s.resetCounters()
}

// warmTails warms the engine, fresh from a reset, for a unit's keys, whose
// residue groups starts bounds (offsets into the plan; keys begins at
// starts[0]), each on its proven tail of tail keys; the plan has groups
// residue groups in all. It reports false, with the engine empty again,
// when it cannot; the caller then warms in full. An inclusive engine
// refuses at once: analysis 5's induction needs fills that never cascade,
// and back-invalidation breaks it (TestWarmTailRefusesBackInvalidation). A
// TLB engine fails when any group fails its proof.
func (s *mtfSim) warmTails(keys []uint32, starts []int32, tail, groups int) bool {
	if s.inclusive {
		return false
	}
	proven := int64(0)
	for g := 0; g+1 < len(starts); g++ {
		group := keys[starts[g]-starts[0] : starts[g+1]-starts[0]]
		if !s.warmTail(group, tail, groups) {
			s.resetState()
			return false
		}
		if len(group) > tail {
			proven++
		}
	}
	tailWarmups.Add(proven)
	return true
}
