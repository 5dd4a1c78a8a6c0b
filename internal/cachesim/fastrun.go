package cachesim

import (
	"cmp"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/perfmetrics/eventlens/internal/par"
)

// fastrun.go executes many sweep points through the move-to-front engine
// (mtf.go), which replays both the cache and the TLB side. The whole (task ×
// component × residue-class) space flattens into independent execution
// units that fan out through par.ForErr under the caller's worker budget —
// one giant Mem-region chase no longer serializes a collection, because its
// cache side is arithmetic (plan.go analyses 1 and 4) and its TLB side
// splits into set-residue chunks (analysis 2) that warm on a proven tail
// (analysis 5). Every unit writes only its own slot of a pre-sized counter
// slice, and reduction sums uint64 counters in fixed order, so results are
// bit-identical to the reference simulator for any worker count — the
// equivalence property tests in fast_test.go and the repo-level determinism
// suite both prove it.

// SweepTask is one chase execution request: a sweep point plus the seed of
// its chain permutation.
type SweepTask struct {
	Point SweepPoint
	Seed  int64
}

// unitCounts carries one execution unit's counters out of the worker pool.
type unitCounts struct {
	hits, misses []uint64
	bottom       uint64
	accesses     uint64
}

// execUnit names one replayable chunk of a task's cache or TLB component:
// the residue groups [g0, g1) of its plan, whose keys are contiguous.
type execUnit struct {
	task   int
	g0, g1 int32
	tlb    bool
}

// engineRuns counts the chases the engine ran (memo misses); allHitRuns
// counts those whose cache side analysis 4 settled, and tailWarmups the
// residue groups that warmed on a proven tail (analysis 5). Tests read them
// so that a silent fallback to simulation fails.
var engineRuns, allHitRuns, tailWarmups atomic.Int64

// RunSweepTasks runs every task — warmup traversal, counter reset, passes
// measured traversals — and returns one ChaseResult per task, bit-identical
// to calling RunSweepPointTLB per task with the same arguments. Results are
// memoized per chase (plan.go), and callers get copies. workers follows the
// par convention (0 = GOMAXPROCS, 1 = serial).
func RunSweepTasks(cfgs []LevelConfig, tlbCfgs []TLBConfig, tasks []SweepTask, passes, workers int) ([]*ChaseResult, error) {
	// Validate geometry once through the reference constructors so the fast
	// path rejects exactly what the reference path rejects.
	h, err := NewHierarchy(cfgs)
	if err != nil {
		return nil, err
	}
	if len(tlbCfgs) > 0 {
		if _, err := NewTLBHierarchy(tlbCfgs); err != nil {
			return nil, err
		}
	}
	if passes < 1 {
		return nil, fmt.Errorf("cachesim: passes must be >= 1, got %d", passes)
	}

	// Claim every task's memo entry and run the chases this call created.
	// Settling them all before waiting on any entry means two overlapping
	// calls never wait on each other.
	entries := make([]*memoEntry, len(tasks))
	var claimed []*memoEntry
	for i, t := range tasks {
		var created bool
		cfg := ChaseConfig{Elements: t.Point.Elements, StrideBytes: t.Point.StrideBytes, Seed: t.Seed}
		if entries[i], created = claimChase(cfgs, tlbCfgs, cfg, passes); created {
			claimed = append(claimed, entries[i])
		}
	}
	runChases(cfgs, tlbCfgs, h.lineShift, claimed, passes, workers)
	results := make([]*ChaseResult, len(tasks))
	for i, e := range entries {
		if results[i], err = e.result(); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// runChases runs claimed chases through the planned engine and settles each
// entry with its result or error. Plans live only for this call.
func runChases(cfgs []LevelConfig, tlbCfgs []TLBConfig, lineShift uint, claimed []*memoEntry, passes, workers int) {
	engineRuns.Add(int64(len(claimed)))
	// Phase 1: build every chase's plan concurrently. A failed plan fails
	// only its chase; a panic, contained by par, fails every chase.
	plans := make([]*chasePlan, len(claimed))
	errs := make([]error, len(claimed))
	failed := par.ForErr(workers, len(claimed), func(ti int) error {
		plans[ti], errs[ti] = buildPlan(cfgs, tlbCfgs, claimed[ti].cfg, lineShift)
		return nil
	})

	// Phase 2: enumerate units deterministically and replay them under the
	// worker budget. Engines recycle through pools, one per cache tail and
	// one for the TLB, all of the move-to-front engine (mtf.go); a reset
	// clears an engine's tags, a few hundred for the TLB.
	var units []execUnit
	for ti, p := range plans {
		if p != nil {
			units = appendUnits(units, ti, p.cacheStarts, false)
			units = appendUnits(units, ti, p.tlbStarts, true)
		}
	}
	counts := make([]unitCounts, len(units))
	cachePools := make([]sync.Pool, len(cfgs))
	for f := range cachePools {
		tail := cfgs[f:]
		cachePools[f].New = func() any { return newMTFCacheSim(tail) }
	}
	var tlbPool sync.Pool
	tlbPool.New = func() any { return newMTFSim(tlbCfgs) }
	err := par.ForErr(workers, len(units), func(ui int) error {
		u := units[ui]
		p := plans[u.task]
		keys, starts, pool := p.tlbKeys, p.tlbStarts, &tlbPool
		if !u.tlb {
			keys, starts, pool = p.cacheKeys, p.cacheStarts, &cachePools[p.firstSim]
		}
		groups := starts[u.g0 : u.g1+1]
		keys = keys[groups[0]:groups[len(groups)-1]]
		sim := pool.Get().(*mtfSim)
		defer pool.Put(sim)
		sim.resetState()
		if !sim.warmTails(keys, groups, tailWarmKeys, len(starts)-1) {
			sim.replay(keys)
		}
		sim.resetCounters()
		for pass := 0; pass < passes; pass++ {
			sim.replay(keys)
		}
		counts[ui] = sim.counts()
		return nil
	})
	failed = cmp.Or(failed, err)

	// Phase 3: reduce per chase in fixed order. Counter totals are exact
	// uint64 sums over disjoint residue classes, and skipped levels follow
	// the all-miss arithmetic, so the float divisions below see the same
	// integer operands the reference produced.
	unitIdx := 0
	for ti, p := range plans {
		if err := cmp.Or(errs[ti], failed); err != nil {
			claimed[ti].settle(nil, err)
			continue
		}
		nl := len(cfgs)
		hits := make([]uint64, nl)
		misses := make([]uint64, nl)
		var mem, cacheAcc uint64
		tlbMisses := make([]uint64, len(tlbCfgs))
		var walks, tlbAcc uint64
		for ; unitIdx < len(units) && units[unitIdx].task == ti; unitIdx++ {
			c := &counts[unitIdx]
			if units[unitIdx].tlb {
				for li := range tlbMisses {
					tlbMisses[li] += c.misses[li]
				}
				walks += c.bottom
				tlbAcc += c.accesses
			} else {
				for li := range c.hits {
					hits[p.firstSim+li] += c.hits[li]
					misses[p.firstSim+li] += c.misses[li]
				}
				mem += c.bottom
				cacheAcc += c.accesses
			}
		}
		n := uint64(p.cfg.Elements) * uint64(passes)
		for li := 0; li < p.firstSim; li++ {
			misses[li] = n
		}
		switch {
		case p.firstSim == nl:
			// Whole cache side is arithmetic: every access misses all levels
			// and goes to memory.
			mem, cacheAcc = n, n
		case p.allHit:
			// Level firstSim serves every access; nothing reaches below it.
			hits[p.firstSim], cacheAcc = n, n
			allHitRuns.Add(1)
		}
		if cacheAcc != n || (len(tlbCfgs) > 0 && tlbAcc != n) {
			claimed[ti].settle(nil, fmt.Errorf("cachesim: internal: sharded access count %d/%d != %d for chase %+v",
				cacheAcc, tlbAcc, n, p.cfg))
			continue
		}
		res := &ChaseResult{Config: p.cfg, Accesses: n}
		nf := float64(n)
		for li := 0; li < nl; li++ {
			res.HitRate = append(res.HitRate, float64(hits[li])/nf)
			res.MissRate = append(res.MissRate, float64(misses[li])/nf)
		}
		res.MemRate = float64(mem) / nf
		if len(tlbCfgs) > 0 {
			for li := range tlbCfgs {
				res.TLBMissRate = append(res.TLBMissRate, float64(tlbMisses[li])/nf)
			}
			res.WalkRate = float64(walks) / nf
		}
		claimed[ti].settle(res, nil)
	}
}

// counts copies the engine's counters out.
func (s *mtfSim) counts() unitCounts {
	c := unitCounts{hits: make([]uint64, len(s.levels)), misses: make([]uint64, len(s.levels)), bottom: s.bottom, accesses: s.accesses}
	for i := range s.levels {
		c.hits[i], c.misses[i] = s.levels[i].hits, s.levels[i].misses
	}
	return c
}

// appendUnits splits one component's residue groups (starts, see chasePlan)
// into execution units: runs of consecutive groups holding at least
// planShardMin keys together, so a chase sharded into thousands of tiny
// groups does not pay a hand-off per group. Groups touch disjoint sets, so
// replaying several back to back counts exactly what replaying each alone
// does.
func appendUnits(units []execUnit, task int, starts []int32, tlb bool) []execUnit {
	for g := 0; g+1 < len(starts); {
		end := g + 1
		for end+1 < len(starts) && int(starts[end]-starts[g]) < planShardMin {
			end++
		}
		if starts[end] > starts[g] {
			units = append(units, execUnit{task: task, g0: int32(g), g1: int32(end), tlb: tlb})
		}
		g = end
	}
	return units
}
