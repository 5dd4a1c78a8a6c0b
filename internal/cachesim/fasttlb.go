package cachesim

// fasttlb.go is the TLB side of the optimized sweep runner (fastrun.go): a
// move-to-front engine. Each set keeps its tags in recency order, most
// recent first, exactly as TLBHierarchy's per-set slices do, but in one flat
// array per level. A hit rotates the prefix up to the hit to the front; a
// miss shifts the whole set down one slot, dropping the LRU tag, and puts
// the new tag in front. No stamp scan picks a victim: the victim is always
// the last slot. TLB fills never cascade, so nothing else can change a set.
// Semantics are bit-identical to TLBHierarchy.Translate; fast_test.go drives
// both access by access and compares.

// emptyTag marks an unused slot: keys are uint32, so no key equals it.
const emptyTag = 1 << 32

// mtfLevel is one TLB level in flat layout: slot j of set s lives at index
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
	// unrolled kernel leaves them alone. warmTail's proof reads only stamps
	// access wrote since a part began, so that is enough.
	stamps []uint64
	// marks[s] == the engine's epoch flags set s as one the group under
	// warmTail maps keys to. Allocated on the engine's first warmTail and
	// reused by every later one.
	marks []uint64
}

// set returns the index of the set holding key.
func (l *mtfLevel) set(key uint64) uint64 {
	if l.mask != 0 {
		return key & l.mask
	}
	return key % l.nsets
}

// touch moves key to the front of its set, stamped with clock, and reports
// whether it was there. One pass carries each slot's tag down to the next
// slot until it lifts out key itself: a hit rotates the slots above key
// down by one, and a miss carries the LRU tag out of the set.
func (l *mtfLevel) touch(key, clock uint64) bool {
	base := l.set(key) * l.ways
	tags := l.tags[base : base+l.ways]
	stamps := l.stamps[base : base+l.ways]
	tag, stamp := key, clock
	for j := range tags {
		tags[j], tag = tag, tags[j]
		stamps[j], stamp = stamp, stamps[j]
		if tag == key {
			return true
		}
	}
	return false
}

// mtfSim simulates a TLB hierarchy: each level is probed in turn, and every
// level that misses fills the translation. bottom counts accesses that
// missed every level: page walks.
type mtfSim struct {
	levels   []mtfLevel
	clock    uint64 // advanced by access only
	bottom   uint64
	accesses uint64
	epoch    uint64 // marks equal to it flag the sets of warmTail's current group
}

// newMTFSim builds the engine for a validated TLB hierarchy, empty.
func newMTFSim(cfgs []TLBConfig) *mtfSim {
	s := &mtfSim{}
	for _, cfg := range cfgs {
		n := uint64(cfg.Sets())
		l := mtfLevel{
			ways:   uint64(cfg.Ways),
			nsets:  n,
			tags:   make([]uint64, cfg.Entries),
			stamps: make([]uint64, cfg.Entries),
		}
		if n&(n-1) == 0 {
			l.mask = n - 1
		}
		s.levels = append(s.levels, l)
	}
	s.resetState()
	return s
}

// access translates one already-shifted key (a VPN) and returns the level
// that served it, or len(levels) for a page walk. A level that misses
// fills the key on the way down, which is the same state
// TLBHierarchy.Translate reaches by filling after the probes: each level's
// change depends only on the key.
func (s *mtfSim) access(key uint32) int {
	s.accesses++
	s.clock++
	for i := range s.levels {
		l := &s.levels[i]
		if l.touch(uint64(key), s.clock) {
			l.hits++
			return i
		}
		l.misses++
	}
	s.bottom++
	return len(s.levels)
}

// replay performs one traversal over a stream of already-shifted keys: the
// unrolled kernel for a power-of-two 4-way level over a power-of-two 8-way
// level (the shipped DTLB+STLB shape), access per key otherwise.
// TestReplayMatchesAccess pins both against access.
func (s *mtfSim) replay(keys []uint32) {
	if len(s.levels) == 2 && s.levels[0].mask != 0 && s.levels[1].mask != 0 &&
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
// group's sets hold a partial state: the caller must reset the engine and
// warm in full. groups is the number of residue groups the group's plan
// splits the stream into (see markSets).
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
// residue groups in all. It reports false, leaving a partial state, when
// any group fails its proof; the caller then resets the engine and warms in
// full.
func (s *mtfSim) warmTails(keys []uint32, starts []int32, tail, groups int) bool {
	proven := int64(0)
	for g := 0; g+1 < len(starts); g++ {
		group := keys[starts[g]-starts[0] : starts[g+1]-starts[0]]
		if !s.warmTail(group, tail, groups) {
			return false
		}
		if len(group) > tail {
			proven++
		}
	}
	tailWarmups.Add(proven)
	return true
}
