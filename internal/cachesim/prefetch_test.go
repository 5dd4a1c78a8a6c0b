package cachesim

import "testing"

func TestSequentialScanIsPrefetched(t *testing.T) {
	// A sequential scan over a buffer much larger than L1 would miss every
	// access without prefetching; a next-line prefetcher hides most misses.
	cfgs := tinyConfig()
	n := 64 // 4x the tiny L1 (16 lines)

	plain, err := NewPrefetchingHierarchy(cfgs, 0)
	if err != nil {
		t.Fatal(err)
	}
	noPf := plain.RunSequentialScan(0, n, 2)
	if noPf.MissRate[0] != 1 {
		t.Fatalf("unprefetched thrashing scan should miss L1 every time, got %v", noPf.MissRate[0])
	}

	pf, err := NewPrefetchingHierarchy(cfgs, 2)
	if err != nil {
		t.Fatal(err)
	}
	with := pf.RunSequentialScan(0, n, 2)
	if with.MissRate[0] >= 0.5 {
		t.Fatalf("prefetcher should hide most sequential misses, miss rate %v", with.MissRate[0])
	}
	if pf.Prefetcher.Issued == 0 {
		t.Fatalf("prefetcher never fired")
	}
}

func TestRandomChaseDefeatsPrefetcher(t *testing.T) {
	// The CAT design point: on a random single-cycle pointer chase the
	// prefetcher fetches useless lines, and demand miss rates still reflect
	// residency — thrash stays ~100% when the buffer exceeds L1.
	cfgs := tinyConfig()
	cfg := ChaseConfig{Elements: 64, StrideBytes: 64, Seed: 5}

	pf, err := NewPrefetchingHierarchy(cfgs, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pf.RunChase(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	// At this small scale a prefetched line occasionally survives until the
	// chase reaches it, so the miss rate is not exactly 1 — but it must
	// stay high, and far above what the same prefetcher achieves on a
	// sequential scan of the same footprint.
	if res.MissRate[0] < 0.7 {
		t.Fatalf("random chase should defeat the prefetcher, L1 miss rate %v", res.MissRate[0])
	}
	seqPf, err := NewPrefetchingHierarchy(cfgs, 2)
	if err != nil {
		t.Fatal(err)
	}
	seq := seqPf.RunSequentialScan(0, cfg.Elements, 2)
	if res.MissRate[0] <= 2*seq.MissRate[0] {
		t.Fatalf("chase miss rate %v should far exceed prefetched sequential %v",
			res.MissRate[0], seq.MissRate[0])
	}
}

func TestPrefetchFillsDoNotCountAsDemand(t *testing.T) {
	cfgs := tinyConfig()
	pf, err := NewPrefetchingHierarchy(cfgs, 4)
	if err != nil {
		t.Fatal(err)
	}
	pf.Access(0) // demand miss + 4 prefetches
	if pf.Accesses != 1 {
		t.Fatalf("demand access count = %d want 1", pf.Accesses)
	}
	hits, misses := pf.LevelStats(0)
	if hits != 0 || misses != 1 {
		t.Fatalf("demand L1 stats = %d/%d want 0/1", hits, misses)
	}
	// The prefetched next line now hits without a demand miss.
	if lvl := pf.Access(64); lvl != 0 {
		t.Fatalf("prefetched line should hit L1, got level %d", lvl)
	}
}

func TestPrefetcherDegreeZeroIsPlain(t *testing.T) {
	cfgs := tinyConfig()
	pf, err := NewPrefetchingHierarchy(cfgs, 0)
	if err != nil {
		t.Fatal(err)
	}
	pf.Access(0)
	pf.Access(64)
	if pf.Prefetcher.Issued != 0 {
		t.Fatalf("degree-0 prefetcher issued fills")
	}
	if lvl := pf.Access(64 * 2); lvl == 0 {
		t.Fatalf("next line should not be resident without prefetching")
	}
}

func TestPrefetchingHierarchyChaseMatchesPlainOnFittingBuffer(t *testing.T) {
	// When the chase fits L1 entirely, prefetching changes nothing.
	cfgs := tinyConfig()
	cfg := ChaseConfig{Elements: 8, StrideBytes: 64, Seed: 2}
	pf, err := NewPrefetchingHierarchy(cfgs, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pf.RunChase(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.HitRate[0] != 1 {
		t.Fatalf("fitting chase should hit L1 always, got %v", res.HitRate[0])
	}
}
