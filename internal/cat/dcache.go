package cat

import (
	"fmt"
	"sync"

	"github.com/perfmetrics/eventlens/internal/cachesim"
	"github.com/perfmetrics/eventlens/internal/core"
	"github.com/perfmetrics/eventlens/internal/machine"
	"github.com/perfmetrics/eventlens/internal/mat"
)

// DCache is the CAT data-cache benchmark: pointer chases over buffers sized
// into each level of the hierarchy, at multiple strides, executed by several
// concurrent threads on disjoint buffers (Section III-E). Per-thread noise
// is suppressed downstream by taking the median across threads.
type DCache struct {
	// Levels is the simulated hierarchy geometry.
	Levels []cachesim.LevelConfig
	// TLBs is the translation hierarchy (nil disables TLB modelling).
	TLBs []cachesim.TLBConfig
	// Strides are the chase strides in bytes (the paper uses 64 and 128).
	Strides []int
	// Passes is the number of measured traversals per point.
	Passes int
	// Seed feeds the chain permutations.
	Seed int64

	buildOnce sync.Once
	points    []cachesim.SweepPoint
}

// NewDCache returns the benchmark on the default SPR-like hierarchy with the
// paper's strides.
func NewDCache() *DCache {
	return &DCache{
		Levels:  cachesim.SPRLikeConfig(),
		TLBs:    cachesim.SPRLikeTLBConfig(),
		Strides: []int{64, 128},
		Passes:  1,
		Seed:    1,
	}
}

// Points returns the sweep configurations.
func (b *DCache) Points() []cachesim.SweepPoint {
	b.buildOnce.Do(func() {
		b.points = cachesim.BuildSweep(b.Levels, b.Strides)
	})
	return b.points
}

// PointNames returns the sweep point labels.
func (b *DCache) PointNames() []string {
	pts := b.Points()
	names := make([]string, len(pts))
	for i, p := range pts {
		names[i] = p.Name()
	}
	return names
}

// cacheStats flattens chase rates into ground-truth stat keys (per access).
func cacheStats(r *cachesim.ChaseResult) machine.Stats {
	l1h, l1m := r.HitRate[0], r.MissRate[0]
	l2h, l2m := r.HitRate[1], r.MissRate[1]
	l3h, l3m := r.HitRate[2], r.MissRate[2]
	s := machine.Stats{
		machine.KeyL1Hit:  l1h,
		machine.KeyL1Miss: l1m,
		machine.KeyL2Hit:  l2h,
		machine.KeyL2Miss: l2m,
		machine.KeyL3Hit:  l3h,
		machine.KeyL3Miss: l3m,
		machine.KeyMemAcc: r.MemRate,
		machine.KeyAccess: 1,
		machine.KeyLoads:  1,
		machine.KeyInstr:  3,
		machine.KeyIntOps: 1,
		machine.KeyCycles: 4*l1h + 14*l2h + 40*l3h + 220*r.MemRate + 1,
	}
	if len(r.TLBMissRate) > 0 {
		s[machine.KeyDTLBMiss] = r.TLBMissRate[0]
		if len(r.TLBMissRate) > 1 {
			s[machine.KeySTLBMiss] = r.TLBMissRate[1]
		}
		s[machine.KeyWalks] = r.WalkRate
	}
	return s
}

// Basis returns the sweep-point x 4 cache expectation basis: each ideal
// event reads 1 per access in its region (L1DH in the L1 region, L2DH in
// L2, L3DH in L3) and L1DM reads 1 everywhere the chase misses L1.
func (b *DCache) Basis() (*core.Basis, error) {
	pts := b.Points()
	e := mat.NewDense(len(pts), 4)
	for i, p := range pts {
		switch p.Region {
		case cachesim.RegionL1:
			e.Set(i, 1, 1) // L1DH
		case cachesim.RegionL2:
			e.Set(i, 0, 1) // L1DM
			e.Set(i, 2, 1) // L2DH
		case cachesim.RegionL3:
			e.Set(i, 0, 1)
			e.Set(i, 3, 1) // L3DH
		case cachesim.RegionMem:
			e.Set(i, 0, 1)
		}
	}
	return core.NewBasis(core.CacheBasisSymbols(), b.PointNames(), e)
}

// GroundTruth returns every measuring thread's ground truth for the full
// sweep under cfg (each thread owns a private hierarchy and a disjoint
// buffer). The whole (thread × sweep-point) space runs through the planned
// cachesim engine, one chase per task fanned out by par.ForErr under
// cfg.Workers with each coordinate's chain seed preserved, so results are
// bit-identical to the per-access reference simulator
// (cachesim.RunSweepPointTLB) for any worker count, and Workers=1 spawns
// nothing.
func (b *DCache) GroundTruth(cfg RunConfig) ([][]machine.Stats, error) {
	pts := b.Points()
	tasks := make([]cachesim.SweepTask, 0, cfg.Threads*len(pts))
	for t := 0; t < cfg.Threads; t++ {
		for i, p := range pts {
			tasks = append(tasks, cachesim.SweepTask{Point: p, Seed: b.Seed + int64(t)*7919 + int64(i)})
		}
	}
	results, err := cachesim.RunSweepTasks(b.Levels, b.TLBs, tasks, b.Passes, cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("cat: dcache: %w", err)
	}
	perThread := make([][]machine.Stats, cfg.Threads)
	for t := range perThread {
		perThread[t] = make([]machine.Stats, len(pts))
		for i := range pts {
			perThread[t][i] = cacheStats(results[t*len(pts)+i])
		}
	}
	return perThread, nil
}
