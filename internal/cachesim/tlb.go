package cachesim

import "fmt"

// TLBConfig describes one translation-lookaside-buffer level.
type TLBConfig struct {
	Name    string
	Entries int
	Ways    int
	// PageBits is log2 of the page size (12 for 4 KiB pages).
	PageBits uint
}

// Sets returns the number of TLB sets.
func (c TLBConfig) Sets() int { return c.Entries / c.Ways }

// Validate checks the TLB geometry.
func (c TLBConfig) Validate() error {
	if c.Entries <= 0 || c.Ways <= 0 || c.PageBits == 0 {
		return fmt.Errorf("cachesim: TLB %q has non-positive geometry", c.Name)
	}
	if c.Entries%c.Ways != 0 {
		return fmt.Errorf("cachesim: TLB %q entries %d not divisible by ways %d", c.Name, c.Entries, c.Ways)
	}
	return nil
}

// tlbLevel is one TLB at runtime (set-associative, true LRU over VPNs).
type tlbLevel struct {
	cfg    TLBConfig
	nsets  uint64
	sets   [][]uint64
	Hits   uint64
	Misses uint64
}

func newTLBLevel(cfg TLBConfig) *tlbLevel {
	n := cfg.Sets()
	sets := make([][]uint64, n)
	for i := range sets {
		sets[i] = make([]uint64, 0, cfg.Ways)
	}
	return &tlbLevel{cfg: cfg, nsets: uint64(n), sets: sets}
}

func (l *tlbLevel) lookup(vpn uint64) bool {
	set := l.sets[vpn%l.nsets]
	for i, tag := range set {
		if tag == vpn {
			copy(set[1:i+1], set[:i])
			set[0] = vpn
			return true
		}
	}
	return false
}

func (l *tlbLevel) insert(vpn uint64) {
	idx := vpn % l.nsets
	set := l.sets[idx]
	if len(set) == l.cfg.Ways {
		copy(set[1:], set[:len(set)-1])
		set[0] = vpn
		l.sets[idx] = set
		return
	}
	set = append(set, 0)
	copy(set[1:], set[:len(set)-1])
	set[0] = vpn
	l.sets[idx] = set
}

// TLBHierarchy is a two-level translation hierarchy (L1 DTLB backed by a
// unified STLB) with page walks on full misses.
type TLBHierarchy struct {
	levels   []*tlbLevel
	pageBits uint
	// Walks counts page-table walks (misses in every TLB level).
	Walks uint64
	// Accesses counts translations requested.
	Accesses uint64
}

// NewTLBHierarchy builds a TLB hierarchy; all levels must share a page size.
func NewTLBHierarchy(cfgs []TLBConfig) (*TLBHierarchy, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("cachesim: no TLB levels")
	}
	h := &TLBHierarchy{pageBits: cfgs[0].PageBits}
	prev := 0
	for _, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		if cfg.PageBits != h.pageBits {
			return nil, fmt.Errorf("cachesim: mixed TLB page sizes")
		}
		if cfg.Entries < prev {
			return nil, fmt.Errorf("cachesim: TLB %q smaller than the level above", cfg.Name)
		}
		prev = cfg.Entries
		h.levels = append(h.levels, newTLBLevel(cfg))
	}
	return h, nil
}

// Translate looks an address up, returning the 0-based level that hit or
// len(levels) for a page walk, and fills the translation into all levels.
func (h *TLBHierarchy) Translate(addr uint64) int {
	h.Accesses++
	vpn := addr >> h.pageBits
	hitLevel := len(h.levels)
	for i, l := range h.levels {
		if l.lookup(vpn) {
			l.Hits++
			hitLevel = i
			break
		}
		l.Misses++
	}
	if hitLevel == len(h.levels) {
		h.Walks++
	}
	for i := hitLevel - 1; i >= 0; i-- {
		h.levels[i].insert(vpn)
	}
	return hitLevel
}

// LevelStats returns (hits, misses) for TLB level i.
func (h *TLBHierarchy) LevelStats(i int) (hits, misses uint64) {
	return h.levels[i].Hits, h.levels[i].Misses
}

// NumLevels returns the number of TLB levels.
func (h *TLBHierarchy) NumLevels() int { return len(h.levels) }

// ResetCounters zeroes hit/miss/walk counters, preserving contents.
func (h *TLBHierarchy) ResetCounters() {
	for _, l := range h.levels {
		l.Hits, l.Misses = 0, 0
	}
	h.Walks = 0
	h.Accesses = 0
}

// SPRLikeTLBConfig returns a scaled-down SPR-flavoured TLB: a 64-entry L1
// DTLB backed by a 512-entry STLB over 4 KiB pages — reaches 256 KiB and
// 2 MiB respectively, bracketing the scaled cache hierarchy so the
// data-cache sweep produces distinct TLB regimes per region.
func SPRLikeTLBConfig() []TLBConfig {
	return []TLBConfig{
		{Name: "DTLB", Entries: 64, Ways: 4, PageBits: 12},
		{Name: "STLB", Entries: 512, Ways: 8, PageBits: 12},
	}
}
