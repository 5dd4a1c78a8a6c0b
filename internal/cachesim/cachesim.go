// Package cachesim simulates a multi-level, set-associative, inclusive data
// cache hierarchy with true-LRU replacement — the substrate underneath the
// CAT data-cache benchmark.
//
// The simulator tracks demand hits and demand misses per level, which are the
// ideal quantities behind the paper's cache expectation basis
// (L1DM, L1DH, L2DH, L3DH). The CAT benchmark drives it with pointer chases
// whose footprint is positioned well inside one level of the hierarchy, so
// that in the post-warmup steady state every access resolves at exactly that
// level: a cyclic LRU reference stream either fits a level (hit rate 1) or
// thrashes it completely (hit rate 0).
//
// Hierarchy and TLBHierarchy are the reference simulators, one slice per
// set. Collection runs RunSweepTasks instead: plans (plan.go) prove what
// they can and replay the rest on one move-to-front engine (mtf.go), whose
// tests compare it with the references access by access.
package cachesim

import "fmt"

// LevelConfig describes one cache level.
type LevelConfig struct {
	Name     string
	Size     int // capacity in bytes
	Ways     int // associativity
	LineSize int // must be equal across levels
}

// Lines returns the number of cache lines the level holds.
func (c LevelConfig) Lines() int { return c.Size / c.LineSize }

// Sets returns the number of sets.
func (c LevelConfig) Sets() int { return c.Lines() / c.Ways }

// Validate checks the configuration for internal consistency.
func (c LevelConfig) Validate() error {
	if c.Size <= 0 || c.Ways <= 0 || c.LineSize <= 0 {
		return fmt.Errorf("cachesim: level %q has non-positive geometry", c.Name)
	}
	if c.Size%(c.Ways*c.LineSize) != 0 {
		return fmt.Errorf("cachesim: level %q size %d not divisible by ways*line", c.Name, c.Size)
	}
	return nil
}

// level is one cache level at runtime. Each set is an MRU-first slice of
// line tags (true LRU).
type level struct {
	cfg    LevelConfig
	nsets  uint64
	sets   [][]uint64
	Hits   uint64 // demand hits
	Misses uint64 // demand misses
}

func newLevel(cfg LevelConfig) *level {
	n := cfg.Sets()
	sets := make([][]uint64, n)
	for i := range sets {
		sets[i] = make([]uint64, 0, cfg.Ways)
	}
	return &level{cfg: cfg, nsets: uint64(n), sets: sets}
}

// lookup probes the level for a line and refreshes LRU order on a hit.
func (l *level) lookup(line uint64) bool {
	set := l.sets[line%l.nsets]
	for i, tag := range set {
		if tag == line {
			// Move to front (MRU).
			copy(set[1:i+1], set[:i])
			set[0] = line
			return true
		}
	}
	return false
}

// insert places a line at MRU, returning the evicted victim if the set was
// full.
func (l *level) insert(line uint64) (victim uint64, evicted bool) {
	idx := line % l.nsets
	set := l.sets[idx]
	if len(set) == l.cfg.Ways {
		victim = set[len(set)-1]
		evicted = true
		copy(set[1:], set[:len(set)-1])
		set[0] = line
		l.sets[idx] = set
		return victim, true
	}
	set = append(set, 0)
	copy(set[1:], set[:len(set)-1])
	set[0] = line
	l.sets[idx] = set
	return 0, false
}

// invalidate removes a line if present.
func (l *level) invalidate(line uint64) {
	idx := line % l.nsets
	set := l.sets[idx]
	for i, tag := range set {
		if tag == line {
			l.sets[idx] = append(set[:i], set[i+1:]...)
			return
		}
	}
}

// Hierarchy is an inclusive multi-level cache backed by memory.
type Hierarchy struct {
	levels    []*level
	lineShift uint
	// MemAccesses counts accesses served by memory (missed every level).
	MemAccesses uint64
	// Accesses counts all demand accesses.
	Accesses uint64
}

// NewHierarchy builds a hierarchy from level configs ordered L1 first.
// All levels must share one line size that is a power of two.
func NewHierarchy(cfgs []LevelConfig) (*Hierarchy, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("cachesim: no levels")
	}
	line := cfgs[0].LineSize
	if line&(line-1) != 0 || line == 0 {
		return nil, fmt.Errorf("cachesim: line size %d not a power of two", line)
	}
	shift := uint(0)
	for 1<<shift != line {
		shift++
	}
	h := &Hierarchy{lineShift: shift}
	prevLines := 0
	for _, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		if cfg.LineSize != line {
			return nil, fmt.Errorf("cachesim: mixed line sizes %d and %d", line, cfg.LineSize)
		}
		if cfg.Lines() < prevLines {
			return nil, fmt.Errorf("cachesim: level %q smaller than the level above it", cfg.Name)
		}
		prevLines = cfg.Lines()
		h.levels = append(h.levels, newLevel(cfg))
	}
	return h, nil
}

// Access performs one demand load of addr. It returns the 0-based index of
// the level that served it, or len(levels) for memory.
func (h *Hierarchy) Access(addr uint64) int {
	h.Accesses++
	line := addr >> h.lineShift
	hitLevel := len(h.levels)
	for i, l := range h.levels {
		if l.lookup(line) {
			l.Hits++
			hitLevel = i
			break
		}
		l.Misses++
	}
	if hitLevel == len(h.levels) {
		h.MemAccesses++
	}
	// Fill the line into every level above the hit level (inclusive policy).
	for i := hitLevel - 1; i >= 0; i-- {
		victim, evicted := h.levels[i].insert(line)
		if evicted && i == len(h.levels)-1 {
			// Eviction from the last level back-invalidates upper levels to
			// preserve inclusion.
			for j := 0; j < i; j++ {
				h.levels[j].invalidate(victim)
			}
		}
	}
	return hitLevel
}

// LevelStats returns (demand hits, demand misses) for level i.
func (h *Hierarchy) LevelStats(i int) (hits, misses uint64) {
	return h.levels[i].Hits, h.levels[i].Misses
}

// NumLevels returns the number of cache levels.
func (h *Hierarchy) NumLevels() int { return len(h.levels) }

// ResetCounters zeroes all hit/miss counters, preserving cache contents.
// The CAT benchmark calls this between the warmup pass and the measured
// passes.
func (h *Hierarchy) ResetCounters() {
	for _, l := range h.levels {
		l.Hits, l.Misses = 0, 0
	}
	h.MemAccesses = 0
	h.Accesses = 0
}

// SPRLikeConfig returns the default simulated hierarchy: a Sapphire-Rapids-
// flavoured geometry scaled down so full sweeps stay fast while preserving
// the L1 < L2 < L3 capacity ordering the analysis depends on.
func SPRLikeConfig() []LevelConfig {
	return []LevelConfig{
		{Name: "L1", Size: 32 << 10, Ways: 8, LineSize: 64},
		{Name: "L2", Size: 512 << 10, Ways: 8, LineSize: 64},
		{Name: "L3", Size: 4 << 20, Ways: 16, LineSize: 64},
	}
}
