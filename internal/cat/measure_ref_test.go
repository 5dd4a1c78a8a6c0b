package cat

import (
	"math"
	"reflect"
	"testing"

	"github.com/perfmetrics/eventlens/internal/core"
	"github.com/perfmetrics/eventlens/internal/fault"
	"github.com/perfmetrics/eventlens/internal/machine"
)

// refSeed is the noise seed of one value: FNV-1a folded byte by byte over
// the platform and event names (each followed by a 0xff separator) and
// then the group, point, rep and thread (eight little-endian bytes each),
// from the offset 1469598103934665603.
func refSeed(platform, event string, coords ...int) uint64 {
	h := uint64(1469598103934665603)
	mix := func(b byte) { h = (h ^ uint64(b)) * 1099511628211 }
	for _, s := range []string{platform, event} {
		for i := 0; i < len(s); i++ {
			mix(s[i])
		}
		mix(0xff)
	}
	for _, v := range coords {
		for i := 0; i < 8; i++ {
			mix(byte(uint64(v) >> (8 * i)))
		}
	}
	return h
}

// refNoisy perturbs an ideal count with the event's noise model: splitmix64
// from the seed, Box–Muller normals, relative noise then absolute noise,
// clamped at zero.
func refNoisy(ideal float64, def machine.EventDef, seed uint64) float64 {
	if def.RelNoise == 0 && def.AbsNoise == 0 {
		return ideal
	}
	state := seed
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	norm := func() float64 {
		u1 := (float64(next()>>11) + 0.5) / (1 << 53)
		u2 := (float64(next()>>11) + 0.5) / (1 << 53)
		return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	}
	v := ideal
	if def.RelNoise != 0 {
		v *= 1 + def.RelNoise*norm()
	}
	if def.AbsNoise != 0 {
		v += def.AbsNoise * norm()
	}
	if v < 0 {
		v = 0
	}
	return v
}

// refCollection is what the reference loop measures: every kept event's
// vector per (rep, thread), at index rep × threads + thread.
type refCollection struct {
	order   []string
	dropped []string
	vectors map[string][][]float64
}

// faultTally counts, over a test, the fault kinds the reference loop saw at
// first attempts, the transients that recovered, the group reads dropped
// and the values corruption changed.
type faultTally struct {
	kinds                       map[fault.Kind]int
	recovered, dropped, mutated int
}

// referenceMeasure is the per-value collection loop: for each (rep, thread,
// group) it consults the fault plan attempt by attempt, then reads every
// event of the group value by value as refNoisy(def.Count(stats), …),
// corrupting values on a corrupt read. A group whose transient fault
// outlasts the retry budget is dropped at every (rep, thread).
func referenceMeasure(t *testing.T, p *machine.Platform, truth [][]machine.Stats, cfg RunConfig, tally *faultTally) refCollection {
	t.Helper()
	p = injected(p, cfg)
	events := p.Names()
	groups := p.Groups(events)
	vectors := make(map[string][][]float64, len(events))
	droppedGroup := make([]bool, len(groups))
	for rep := 0; rep < cfg.Reps; rep++ {
		for thread := 0; thread < cfg.Threads; thread++ {
			points := truth[0]
			if len(truth) > 1 {
				points = truth[thread]
			}
			for gi, group := range groups {
				coord := fault.Coord{Site: fault.SiteMeasure, Name: p.Name, Group: gi, Rep: rep, Thread: thread}
				corrupt, read := false, true
				if p.Inject != nil {
					read = false
					for attempt := 0; attempt <= p.Inject.Retries(); attempt++ {
						kind := p.Inject.At(coord, attempt)
						if attempt == 0 {
							tally.kinds[kind]++
						}
						if kind == fault.Panic {
							t.Fatalf("%s: panic fault at %v", p.Name, coord)
						}
						if kind == fault.Transient {
							continue
						}
						if attempt > 0 {
							tally.recovered++
						}
						corrupt, read = kind == fault.Corrupt, true
						break
					}
				}
				if !read {
					droppedGroup[gi] = true
					tally.dropped++
				}
				for _, name := range group {
					def, ok := p.Lookup(name)
					if !ok {
						t.Fatalf("%s: no event %q", p.Name, name)
					}
					vec := make([]float64, len(points))
					for pi, stats := range points {
						vec[pi] = refNoisy(def.Count(stats), def, refSeed(p.Name, name, gi, pi, rep, thread))
						if corrupt {
							var changed bool
							if vec[pi], changed = p.Inject.CorruptValue(coord, name, pi, vec[pi]); changed {
								tally.mutated++
							}
						}
					}
					vectors[name] = append(vectors[name], vec)
				}
			}
		}
	}
	ref := refCollection{vectors: vectors}
	for gi, group := range groups {
		if droppedGroup[gi] {
			ref.dropped = append(ref.dropped, group...)
		}
	}
	dropped := make(map[string]bool, len(ref.dropped))
	for _, name := range ref.dropped {
		dropped[name] = true
	}
	// measure lists dropped events in catalog order, like its kept ones.
	ref.dropped = ref.dropped[:0]
	for _, name := range events {
		if dropped[name] {
			ref.dropped = append(ref.dropped, name)
		} else {
			ref.order = append(ref.order, name)
		}
	}
	return ref
}

// sameBits reports whether two vectors hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func checkMeasureAgainstReference(t *testing.T, set *core.MeasurementSet, ref refCollection, cfg RunConfig) {
	t.Helper()
	if !reflect.DeepEqual(set.Order, ref.order) {
		t.Fatalf("Order: %d events, reference %d", len(set.Order), len(ref.order))
	}
	if !reflect.DeepEqual(set.Dropped, ref.dropped) {
		t.Fatalf("Dropped: %v, reference %v", set.Dropped, ref.dropped)
	}
	for _, name := range ref.order {
		ms := set.Events[name]
		if len(ms) != cfg.Reps*cfg.Threads {
			t.Fatalf("%s: %d measurements, want %d", name, len(ms), cfg.Reps*cfg.Threads)
		}
		for i, m := range ms {
			if m.Rep != i/cfg.Threads || m.Thread != i%cfg.Threads {
				t.Fatalf("%s: measurement %d is (rep %d, thread %d)", name, i, m.Rep, m.Thread)
			}
			if !sameBits(m.Vector, ref.vectors[name][i]) {
				t.Fatalf("%s rep %d thread %d: %v, reference %v", name, m.Rep, m.Thread, m.Vector, ref.vectors[name][i])
			}
		}
	}
}

// TestMeasureMatchesPerValueReference: measure produces, bit for bit, what
// the per-value loop produces — on every built-in platform, for each
// benchmark of its class, serial and parallel, clean and under fault specs
// whose corrupt, transient and slow faults fire at the measure site. Under
// the dropping spec some transients outlast the retry budget, and measure
// drops their groups as the reference does.
func TestMeasureMatchesPerValueReference(t *testing.T) {
	reg, err := machine.NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	benches := []struct {
		name, class string
		driver      Driver
		cfg         RunConfig
	}{
		{"cpu-flops", "cpu", NewFlopsCPU(), DefaultRunConfig()},
		{"branch", "cpu", NewBranch(), DefaultRunConfig()},
		{"dcache", "cpu", NewDCache(), RunConfig{Reps: 5, Threads: 4}},
		{"gpu-flops", "gpu", NewFlopsGPU(), DefaultRunConfig()},
	}
	truths := make([][][]machine.Stats, len(benches))
	for i, b := range benches {
		if truths[i], err = b.driver.GroundTruth(b.cfg); err != nil {
			t.Fatal(err)
		}
	}
	const (
		recovering = "seed=11,corrupt=0.05,transient=0.2,slow=0.01,depth=2,retries=2"
		dropping   = "seed=11,corrupt=0.05,transient=0.03,slow=0.01,depth=3,retries=1"
	)
	tally := &faultTally{kinds: map[fault.Kind]int{}}
	pairs := 0
	for _, platform := range reg.Names() {
		p, err := reg.Platform(platform)
		if err != nil {
			t.Fatal(err)
		}
		for bi, b := range benches {
			if b.class != p.Class {
				continue
			}
			pairs++
			names := b.driver.PointNames()
			for _, spec := range []string{"", recovering, dropping} {
				cfg := b.cfg
				cfg.Faults = spec
				ref := referenceMeasure(t, p, truths[bi], cfg, tally)
				for _, workers := range []int{1, 0} {
					cfg.Workers = workers
					r, err := measure(b.name, p, names, truths[bi], cfg)
					if err != nil {
						t.Fatalf("%s × %s, faults %q, workers %d: %v", platform, b.name, spec, workers, err)
					}
					checkMeasureAgainstReference(t, r.Set(), ref, cfg)
				}
			}
		}
	}
	if pairs < 7 {
		t.Fatalf("covered %d (platform, benchmark) pairs; the registry should give at least 7", pairs)
	}
	for _, k := range []fault.Kind{fault.Corrupt, fault.Transient, fault.Slow} {
		if tally.kinds[k] == 0 {
			t.Errorf("no %v fault fired at the measure site", k)
		}
	}
	if tally.recovered == 0 || tally.dropped == 0 || tally.mutated == 0 {
		t.Errorf("faults recovered %d, dropped %d group reads, mutated %d values; each must happen", tally.recovered, tally.dropped, tally.mutated)
	}
}

// TestMeasureRejectsMismatchedTruth: ground truth for two threads cannot
// serve a three-thread run.
func TestMeasureRejectsMismatchedTruth(t *testing.T) {
	platform := sprPlatform(t)
	truth := [][]machine.Stats{{}, {}}
	cfg := RunConfig{Reps: 1, Threads: 3}
	if _, err := measure("branch", platform, nil, truth, cfg); err == nil {
		t.Fatalf("measure: ground truth for 2 threads accepted for 3")
	}
}
