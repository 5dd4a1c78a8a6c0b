package cachesim

import "fmt"

// ChaseConfig describes one pointer-chase workload: Elements pointers laid
// out StrideBytes apart, visited in a single random cycle (Sattolo
// permutation) to defeat any stride prefetcher, exactly as the CAT
// data-cache benchmark arranges its buffers.
type ChaseConfig struct {
	Elements    int
	StrideBytes int
	Base        uint64 // base address of the buffer
	Seed        int64  // permutation seed (deterministic chains)
}

// Validate checks the chase parameters.
func (c ChaseConfig) Validate() error {
	if c.Elements < 2 {
		return fmt.Errorf("cachesim: chase needs at least 2 elements, got %d", c.Elements)
	}
	if c.StrideBytes <= 0 {
		return fmt.Errorf("cachesim: non-positive stride %d", c.StrideBytes)
	}
	return nil
}

// BuildChain returns the access sequence of one full traversal of the chase:
// a permutation of all element addresses forming a single cycle (Sattolo's
// algorithm — a uniformly random single-cycle permutation, built by
// buildPerm and shared with the planned execution path in plan.go).
func BuildChain(cfg ChaseConfig) ([]uint64, error) {
	next, err := buildPerm(cfg)
	if err != nil {
		return nil, err
	}
	// Walk the cycle starting at element 0, emitting addresses.
	chain := make([]uint64, cfg.Elements)
	cur := int32(0)
	for k := range chain {
		chain[k] = cfg.Base + uint64(cur)*uint64(cfg.StrideBytes)
		cur = next[cur]
	}
	return chain, nil
}

// ChaseResult reports per-access steady-state rates from a measured chase.
type ChaseResult struct {
	Config ChaseConfig
	// Accesses is the number of measured demand loads.
	Accesses uint64
	// HitRate[i] is demand hits at level i per access; MissRate[i] likewise.
	HitRate  []float64
	MissRate []float64
	// MemRate is memory accesses per access.
	MemRate float64
	// TLBMissRate[i] is TLB misses at translation level i per access, and
	// WalkRate is page walks per access; both are zero-length/zero when the
	// chase ran without a TLB model.
	TLBMissRate []float64
	WalkRate    float64
}

// RunChaseWithTLB executes the pointer chase on h: one warmup traversal
// (uncounted) followed by `passes` measured traversals, and returns
// per-access rates. With a non-nil tlb every demand load first translates
// its address, so the result additionally reports per-level TLB miss rates
// and the page-walk rate.
func RunChaseWithTLB(h *Hierarchy, tlb *TLBHierarchy, cfg ChaseConfig, passes int) (*ChaseResult, error) {
	chain, err := BuildChain(cfg)
	if err != nil {
		return nil, err
	}
	if passes < 1 {
		return nil, fmt.Errorf("cachesim: passes must be >= 1, got %d", passes)
	}
	access := func(addr uint64) {
		if tlb != nil {
			tlb.Translate(addr)
		}
		h.Access(addr)
	}
	// Warmup traversal primes every level.
	for _, addr := range chain {
		access(addr)
	}
	h.ResetCounters()
	if tlb != nil {
		tlb.ResetCounters()
	}
	for p := 0; p < passes; p++ {
		for _, addr := range chain {
			access(addr)
		}
	}
	res := &ChaseResult{Config: cfg, Accesses: h.Accesses}
	n := float64(h.Accesses)
	for i := 0; i < h.NumLevels(); i++ {
		hits, misses := h.LevelStats(i)
		res.HitRate = append(res.HitRate, float64(hits)/n)
		res.MissRate = append(res.MissRate, float64(misses)/n)
	}
	res.MemRate = float64(h.MemAccesses) / n
	if tlb != nil {
		for i := 0; i < tlb.NumLevels(); i++ {
			_, misses := tlb.LevelStats(i)
			res.TLBMissRate = append(res.TLBMissRate, float64(misses)/n)
		}
		res.WalkRate = float64(tlb.Walks) / n
	}
	return res, nil
}
