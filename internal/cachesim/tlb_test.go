package cachesim

import "testing"

func tinyTLB() []TLBConfig {
	return []TLBConfig{
		{Name: "DTLB", Entries: 4, Ways: 2, PageBits: 12},
		{Name: "STLB", Entries: 16, Ways: 4, PageBits: 12},
	}
}

func TestTLBConfigValidation(t *testing.T) {
	good := TLBConfig{Name: "t", Entries: 8, Ways: 2, PageBits: 12}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if good.Sets() != 4 {
		t.Fatalf("Sets = %d", good.Sets())
	}
	bad := TLBConfig{Name: "b", Entries: 7, Ways: 2, PageBits: 12}
	if err := bad.Validate(); err == nil {
		t.Fatalf("indivisible entries should fail")
	}
	if err := (TLBConfig{Name: "z"}).Validate(); err == nil {
		t.Fatalf("zero geometry should fail")
	}
}

func TestNewTLBHierarchyValidation(t *testing.T) {
	if _, err := NewTLBHierarchy(nil); err == nil {
		t.Fatalf("empty hierarchy should fail")
	}
	mixed := []TLBConfig{
		{Name: "a", Entries: 4, Ways: 2, PageBits: 12},
		{Name: "b", Entries: 8, Ways: 2, PageBits: 21},
	}
	if _, err := NewTLBHierarchy(mixed); err == nil {
		t.Fatalf("mixed page sizes should fail")
	}
	shrinking := []TLBConfig{
		{Name: "a", Entries: 8, Ways: 2, PageBits: 12},
		{Name: "b", Entries: 4, Ways: 2, PageBits: 12},
	}
	if _, err := NewTLBHierarchy(shrinking); err == nil {
		t.Fatalf("shrinking hierarchy should fail")
	}
}

func TestTLBHitAfterFill(t *testing.T) {
	h, err := NewTLBHierarchy(tinyTLB())
	if err != nil {
		t.Fatal(err)
	}
	if lvl := h.Translate(0x5000); lvl != 2 {
		t.Fatalf("cold translation should walk, got level %d", lvl)
	}
	if h.Walks != 1 {
		t.Fatalf("walks = %d", h.Walks)
	}
	if lvl := h.Translate(0x5abc); lvl != 0 { // same page
		t.Fatalf("same-page translation should hit DTLB, got %d", lvl)
	}
}

func TestTLBCapacityEviction(t *testing.T) {
	h, err := NewTLBHierarchy(tinyTLB())
	if err != nil {
		t.Fatal(err)
	}
	// Touch 8 pages: DTLB (4 entries) evicts, STLB (16) holds all.
	for p := uint64(0); p < 8; p++ {
		h.Translate(p << 12)
	}
	h.ResetCounters()
	for p := uint64(0); p < 8; p++ {
		h.Translate(p << 12)
	}
	_, dtlbMiss := h.LevelStats(0)
	_, stlbMiss := h.LevelStats(1)
	if dtlbMiss == 0 {
		t.Fatalf("8 pages must overflow a 4-entry DTLB")
	}
	if stlbMiss != 0 {
		t.Fatalf("8 pages must fit a 16-entry STLB, got %d misses", stlbMiss)
	}
	if h.Walks != 0 {
		t.Fatalf("no walks expected, got %d", h.Walks)
	}
}

func TestChaseWithTLBRegimes(t *testing.T) {
	// Small chase: fits both TLBs -> no misses. Large chase: overflows
	// the STLB -> walks on (almost) every access.
	cfgs := tinyConfig()
	small := ChaseConfig{Elements: 8, StrideBytes: 64, Seed: 3} // one page
	h, _ := NewHierarchy(cfgs)
	tlb, _ := NewTLBHierarchy(tinyTLB())
	res, err := RunChaseWithTLB(h, tlb, small, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.TLBMissRate[0] != 0 || res.WalkRate != 0 {
		t.Fatalf("single-page chase should never miss the TLB: %+v", res)
	}
	// 128 elements at 4096-byte stride: one page each, 128 pages > 16 STLB
	// entries -> steady-state thrash.
	big := ChaseConfig{Elements: 128, StrideBytes: 4096, Seed: 3}
	h2, _ := NewHierarchy([]LevelConfig{
		{Name: "L1", Size: 64 << 10, Ways: 16, LineSize: 64},
		{Name: "L2", Size: 256 << 10, Ways: 16, LineSize: 64},
		{Name: "L3", Size: 1 << 20, Ways: 16, LineSize: 64},
	})
	tlb2, _ := NewTLBHierarchy(tinyTLB())
	res2, err := RunChaseWithTLB(h2, tlb2, big, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.WalkRate != 1 {
		t.Fatalf("page-per-element chase should walk every access, rate %v", res2.WalkRate)
	}
}

func TestSweepWithTLBMonotonicRegions(t *testing.T) {
	// Across the sweep, walk rates must be non-trivial only for footprints
	// beyond the STLB reach.
	cfgs := SPRLikeConfig()
	tlbs := SPRLikeTLBConfig()
	reach := tlbs[1].Entries << tlbs[1].PageBits // bytes the STLB maps
	for _, p := range BuildSweep(cfgs, []int{64}) {
		res, err := RunSweepPointTLB(cfgs, tlbs, p, 5, 1)
		if err != nil {
			t.Fatal(err)
		}
		footprint := p.Elements * p.StrideBytes
		if footprint <= reach/2 && res.WalkRate > 0.01 {
			t.Errorf("%s: footprint %d within STLB reach %d but walk rate %v",
				p.Name(), footprint, reach, res.WalkRate)
		}
		if footprint >= 4*reach && res.WalkRate < 0.5 {
			t.Errorf("%s: footprint %d far beyond STLB reach %d but walk rate %v",
				p.Name(), footprint, reach, res.WalkRate)
		}
	}
}
