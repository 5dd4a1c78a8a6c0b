package cachesim

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"

	"github.com/perfmetrics/eventlens/internal/par"
)

// fastrun.go executes many sweep points through the move-to-front engine
// (mtf.go), which replays both the cache and the TLB side. Every chase a
// call claims is one par.ForErr task under the caller's worker budget,
// handed out largest first so that the longest chases never start last.
// A task plans its chase (plan.go), scatters its key streams into its
// worker's scratch, warms the engine — on the stream's proven tail when
// analysis 4 proves one — replays the measured passes and settles the
// chase's memo entry. Its cache side is arithmetic on every shipped point
// (analyses 1 and 3); a test geometry or a sub-line stride replays it in the
// same task. One engine replays a chase's whole stream, and skipped levels
// follow the plan's arithmetic, so results are bit-identical to the
// reference simulator for any worker count and any hand-out order — the
// equivalence property tests in fast_test.go and the repo-level determinism
// suite both prove it.

// SweepTask is one chase execution request: a sweep point plus the seed of
// its chain permutation.
type SweepTask struct {
	Point SweepPoint
	Seed  int64
}

// engineRuns counts the chases the engine ran (memo misses); allHitRuns
// counts those whose cache side analysis 3 settled, and tailWarmups the
// streams that warmed on a proven tail (analysis 4). Tests read them so
// that a silent fallback to simulation fails.
var engineRuns, allHitRuns, tailWarmups atomic.Int64

// RunSweepTasks runs every task — warmup traversal, counter reset, passes
// measured traversals — and returns one ChaseResult per task, bit-identical
// to calling RunSweepPointTLB per task with the same arguments. Results are
// memoized per chase (plan.go), and callers get copies. workers follows the
// par convention (0 = GOMAXPROCS, 1 = serial).
func RunSweepTasks(cfgs []LevelConfig, tlbCfgs []TLBConfig, tasks []SweepTask, passes, workers int) ([]*ChaseResult, error) {
	// The reference constructors' rules, without building either reference,
	// so the fast path rejects exactly what the reference path rejects.
	lineShift, err := checkLevels(cfgs)
	if err != nil {
		return nil, err
	}
	if len(tlbCfgs) > 0 {
		if err := checkTLBs(tlbCfgs); err != nil {
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
	runChases(cfgs, tlbCfgs, lineShift, claimed, passes, workers)
	results := make([]*ChaseResult, len(tasks))
	for i, e := range entries {
		if results[i], err = e.result(); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// chaseWorker is one running chase's scratch: the traversal's two buffers
// and its engines, built on first use and reset by every chase. A task
// takes a free one or makes one, and grows its buffers when its chase is
// longer. At most W tasks run at once, so a call holds at most W of them,
// and tasks are handed out largest first, so the buffers come to about 8
// bytes per element of the W longest chases that replay a stream: at most
// W × 8 × the longest chase whatever the number of chases, and about 8
// bytes per element of the batch whatever the worker count. None of it
// outlives the call.
type chaseWorker struct {
	keys, work []uint32
	tlb        *mtfSim
	cache      []*mtfSim // by first simulated level
}

// runChases runs claimed chases, one task each, largest first, and settles
// each entry with its result or error.
func runChases(cfgs []LevelConfig, tlbCfgs []TLBConfig, lineShift uint, claimed []*memoEntry, passes, workers int) {
	engineRuns.Add(int64(len(claimed)))
	slices.SortStableFunc(claimed, func(a, b *memoEntry) int { return cmp.Compare(b.cfg.Elements, a.cfg.Elements) })
	// No more tasks run at once than par starts workers, so returning a
	// scratch never blocks.
	free := make(chan *chaseWorker, min(par.Workers(workers), len(claimed)))
	settled := make([]bool, len(claimed))
	failed := par.ForErr(workers, len(claimed), func(i int) error {
		e := claimed[i]
		p, err := planChase(cfgs, tlbCfgs, e.cfg, lineShift)
		var res *ChaseResult
		if err == nil {
			// A chase the plan rejects sizes no scratch.
			var w *chaseWorker
			select {
			case w = <-free:
			default:
				w = &chaseWorker{cache: make([]*mtfSim, len(cfgs))}
			}
			defer func() { free <- w }()
			res = w.run(cfgs, tlbCfgs, lineShift, &p, passes)
		}
		e.settle(res, err)
		settled[i] = true
		return nil
	})
	// A panic, contained by par, fails the chase that raised it.
	for i, e := range claimed {
		if !settled[i] {
			e.settle(nil, failed)
		}
	}
}

// run executes one planned chase on the worker's scratch and engines.
// Skipped levels follow the plan's arithmetic, so the float divisions see
// the same integer operands the reference produced.
func (w *chaseWorker) run(cfgs []LevelConfig, tlbCfgs []TLBConfig, lineShift uint, p *chasePlan, passes int) *ChaseResult {
	n := uint64(p.cfg.Elements) * uint64(passes)
	nf := float64(n)
	rate := func(count uint64) float64 { return float64(count) / nf }
	res := &ChaseResult{Config: p.cfg, Accesses: n, HitRate: make([]float64, len(cfgs)), MissRate: make([]float64, len(cfgs))}
	var pageBits uint
	if p.tlb {
		pageBits = tlbCfgs[0].PageBits
	}
	cacheKeys, tlbKeys := w.streams(p, lineShift, pageBits)
	for li := range p.firstSim {
		res.MissRate[li] = rate(n)
	}
	switch {
	case p.cache:
		if w.cache[p.firstSim] == nil {
			w.cache[p.firstSim] = newMTFCacheSim(cfgs[p.firstSim:])
		}
		sim := w.cache[p.firstSim]
		sim.measure(cacheKeys, passes, false)
		for li := range sim.levels {
			res.HitRate[p.firstSim+li] = rate(sim.levels[li].hits)
			res.MissRate[p.firstSim+li] = rate(sim.levels[li].misses)
		}
		res.MemRate = rate(sim.bottom)
	case p.allHit:
		// Level firstSim serves every access; nothing reaches below it.
		res.HitRate[p.firstSim] = rate(n)
		allHitRuns.Add(1)
	default:
		// Every access misses every level and goes to memory.
		res.MemRate = rate(n)
	}
	if p.tlb {
		if w.tlb == nil {
			w.tlb = newMTFSim(tlbCfgs)
		}
		w.tlb.measure(tlbKeys, passes, p.tail)
		res.TLBMissRate = make([]float64, len(tlbCfgs))
		for li := range w.tlb.levels {
			res.TLBMissRate[li] = rate(w.tlb.levels[li].misses)
		}
		res.WalkRate = rate(w.tlb.bottom)
	}
	return res
}

// streams scatters the plan's key streams into the worker's buffers and
// returns the cache side's line numbers and the TLB side's VPNs, nil for a
// side that replays nothing (analysis 2).
func (w *chaseWorker) streams(p *chasePlan, lineShift, pageBits uint) (cache, tlb []uint32) {
	if !p.replays() {
		return nil, nil
	}
	n := p.cfg.Elements
	if len(w.keys) < n {
		w.keys, w.work = make([]uint32, n), make([]uint32, n)
	}
	keys, other := w.keys[:n], w.work[:n]
	traversal(p.cfg, p.shift, keys, other)
	switch {
	case p.cache && p.tlb:
		d := max(lineShift, pageBits) - p.shift
		for i, k := range keys {
			other[i] = k >> d
		}
		if lineShift > pageBits {
			return other, keys
		}
		return keys, other
	case p.cache:
		return keys, nil
	}
	return nil, keys
}
