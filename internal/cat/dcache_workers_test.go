package cat

import (
	"math"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"github.com/perfmetrics/eventlens/internal/cachesim"
	"github.com/perfmetrics/eventlens/internal/machine"
)

// referenceGroundTruth is the reference ground truth for one thread: every
// sweep point through the per-access reference simulator, sequentially, with
// the chain seeds DCache.GroundTruth uses. It is the oracle the planned
// engine must match bit for bit.
func referenceGroundTruth(b *DCache, threadSeed int64) ([]machine.Stats, error) {
	pts := b.Points()
	stats := make([]machine.Stats, len(pts))
	for i, p := range pts {
		res, err := cachesim.RunSweepPointTLB(b.Levels, b.TLBs, p, b.Seed+threadSeed*7919+int64(i), b.Passes)
		if err != nil {
			return nil, err
		}
		stats[i] = cacheStats(res)
	}
	return stats, nil
}

// statsBits renders ground-truth stats as float bit patterns so equality
// checks are exact, not tolerance-based.
func statsBits(stats []machine.Stats) []map[string]uint64 {
	out := make([]map[string]uint64, len(stats))
	for i, s := range stats {
		m := make(map[string]uint64, len(s))
		for k, v := range s {
			m[string(k)] = math.Float64bits(v)
		}
		out[i] = m
	}
	return out
}

// referenceGroundTruthAll is referenceGroundTruth for every thread.
func referenceGroundTruthAll(t *testing.T, b *DCache, threads int) [][]machine.Stats {
	t.Helper()
	ref := make([][]machine.Stats, threads)
	for thread := range ref {
		stats, err := referenceGroundTruth(b, int64(thread))
		if err != nil {
			t.Fatal(err)
		}
		ref[thread] = stats
	}
	return ref
}

// workerSeeds hands every DCache a worker-count comparison builds a seed no
// earlier collection in the process has used — across tests and -count
// iterations alike — so no worker count reads memoized chase results and
// every one runs the engine. Seeds are spaced wider than one collection's
// chain seeds (Seed + thread*7919 + point) and start above every fixed seed
// the package's tests use.
var workerSeeds atomic.Int64

func workerSeed() int64 { return workerSeeds.Add(1) << 20 }

// TestDCacheWorkersBitIdentical proves Collect's measurement set equals the
// one measured over the reference ground truth for every worker count,
// Workers=1 included — with and without TLB modelling. Each worker count
// has its own seed and its own reference.
func TestDCacheWorkersBitIdentical(t *testing.T) {
	p := sprPlatform(t)
	const threads = 4
	for _, withTLB := range []bool{false, true} {
		for _, workers := range []int{1, 0, 2, 8} {
			b := testDCache()
			b.Seed = workerSeed()
			if withTLB {
				b.TLBs = []cachesim.TLBConfig{
					{Name: "DTLB", Entries: 8, Ways: 2, PageBits: 8},
					{Name: "STLB", Entries: 32, Ways: 4, PageBits: 8},
				}
			}
			r, err := measure("dcache", p, b.PointNames(), referenceGroundTruthAll(t, b, threads), RunConfig{Reps: 3, Threads: threads, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			ref := r.Set()
			got, err := Collect("dcache", b, p, RunConfig{Reps: 3, Threads: threads, Workers: workers})
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("tlb=%v workers=%d: measurement set differs from the reference ground truth's", withTLB, workers)
			}
		}
	}
}

// TestDCacheGroundTruthMatchesFast compares the reference ground truth with
// DCache.GroundTruth directly, bit for bit, per thread and point, at every
// worker count, each with its own seed and reference.
func TestDCacheGroundTruthMatchesFast(t *testing.T) {
	const threads = 3
	for _, workers := range []int{1, 2, 8, 0} {
		b := testDCache()
		b.Seed = workerSeed()
		b.TLBs = []cachesim.TLBConfig{
			{Name: "DTLB", Entries: 8, Ways: 2, PageBits: 8},
			{Name: "STLB", Entries: 32, Ways: 4, PageBits: 8},
		}
		ref := referenceGroundTruthAll(t, b, threads)
		fast, err := b.GroundTruth(RunConfig{Reps: 1, Threads: threads, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for thread := range ref {
			if !reflect.DeepEqual(statsBits(ref[thread]), statsBits(fast[thread])) {
				t.Fatalf("workers=%d thread %d: fast ground truth differs from reference", workers, thread)
			}
		}
	}
}

// TestDCacheMemoHitGroundTruthAllocs bounds what a memo-hit GroundTruth of
// the shipped sweep at four threads allocates — what every validation of a
// CPU platform pays for its documented counts. Building the reference
// hierarchy only to validate the geometry cost 857 KB and 6,614 allocations
// per call; checking the geometry allocates nothing, and the bound is a
// fifth of that.
func TestDCacheMemoHitGroundTruthAllocs(t *testing.T) {
	b := NewDCache()
	b.Seed = workerSeed()
	cfg := RunConfig{Reps: 5, Threads: 4}
	if _, err := b.GroundTruth(cfg); err != nil {
		t.Fatal(err)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := b.GroundTruth(cfg); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&after)
	// AllocsPerRun makes one warm-up call besides its runs.
	perCall := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	if allocs > 6614/5 || perCall > 857_290/5 {
		t.Fatalf("a memo-hit GroundTruth allocates %.0f objects and %d bytes, bound %d and %d", allocs, perCall, 6614/5, 857_290/5)
	}
}
