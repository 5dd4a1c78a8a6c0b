// Package machine models the performance-monitoring side of a hardware
// platform: a catalog of raw hardware events, each defined by its response to
// the ground-truth statistics a workload simulator reports, plus a
// deterministic noise model and the limited-physical-counter multiplexing that
// real PMUs impose.
//
// This package is the substitution for the real Aurora (Intel Sapphire
// Rapids) and Frontier (AMD MI250X) machines of the paper: the analysis
// pipeline consumes only (event name -> measurement vector) data, and the
// platforms built here from internal/platdef definitions produce vectors
// with the same structure — exact linear responses for the architecturally
// meaningful events, derived and scaled duplicates, and a heteroscedastic
// noisy tail — including the architectural quirks the paper's results hinge
// on (FP_ARITH_INST_RETIRED counting FMA twice; SQ_INSTS_VALU_ADD counting
// subtractions).
package machine

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"github.com/perfmetrics/eventlens/internal/fault"
	"github.com/perfmetrics/eventlens/internal/mat"
	"github.com/perfmetrics/eventlens/internal/par"
	"github.com/perfmetrics/eventlens/internal/platdef"
)

// Stats is the ground truth a workload simulator reports for one benchmark
// point (one kernel loop, one sweep configuration, ...). Missing keys read
// as zero, which is how events become all-zero — and therefore irrelevant —
// on benchmarks that do not exercise them.
type Stats map[string]float64

// EventDef defines one raw hardware event: its name, noise model, and the
// linear response (Count) and documented semantics (DocExpectation) over
// ground-truth stat keys. Platforms hold the definitions exactly as loaded
// from a platform definition.
type EventDef = platdef.Event

// Platform is a simulated machine: its validated definition (name, class,
// counters, constraints and raw-event catalog, shared and read-only) and
// its collection plan, built once, on first use (Plan). It keeps nothing
// keyed by event name: collection reads events by catalog index. FromDef
// is its constructor, and a Registry keeps one per definition.
//
// The name is part of every noise seed, so two platforms never share noise
// streams; the class ("cpu" or "gpu") gates which benchmarks run on it.
// Measuring more events than there are programmable counters multiplexes
// them across event groups, each a distinct run with its own noise draw,
// and counter constraints route grouping through the constraint-aware
// scheduler.
type Platform struct {
	*platdef.Platform
	// plan builds the collection plan on its first call and returns it on
	// every call; WithInjector copies share it.
	plan func() *Plan
	// Inject optionally enables deterministic fault injection on this
	// platform's counter reads: transient group-read failures (re-measured
	// up to the plan's retry budget), value corruption, slow reads, and
	// worker panics. Nil measures cleanly. Faults are keyed by the same
	// (platform, group, rep, thread) coordinates as the noise model, so a
	// chaos run replays exactly and is independent of worker count.
	Inject *fault.Plan
}

// newPlatform builds the live platform over a validated definition.
func newPlatform(def *platdef.Platform) *Platform {
	p := &Platform{Platform: def}
	p.plan = sync.OnceValue(func() *Plan { return newPlan(p) })
	return p
}

// Plan returns the platform's collection plan: built on the first call
// and shared, read-only, by every later one, from any goroutine, and by
// every WithInjector copy.
func (p *Platform) Plan() *Plan {
	return p.plan()
}

// Names returns all event names in catalog order.
func (p *Platform) Names() []string {
	out := make([]string, len(p.Events))
	for i, e := range p.Events {
		out[i] = e.Name
	}
	return out
}

// Lookup returns the definition of a named event. It scans the catalog:
// collection reads events by index, not by name.
func (p *Platform) Lookup(name string) (EventDef, bool) {
	i := slices.IndexFunc(p.Events, func(e EventDef) bool { return e.Name == name })
	if i < 0 {
		return EventDef{}, false
	}
	return p.Events[i], true
}

// WithInjector returns a copy of the platform carrying a fault-injection
// plan, leaving the receiver untouched (platforms may be shared). The copy
// shares the receiver's collection plan.
func (p *Platform) WithInjector(inj *fault.Plan) *Platform {
	q := *p
	q.Inject = inj
	return &q
}

// Groups partitions event names into multiplexing groups, in catalog order.
// Platforms with counter constraints go through the constraint-aware
// scheduler; unconstrained platforms use plain counter-sized chunks.
func (p *Platform) Groups(names []string) [][]string {
	if len(p.Constraints) > 0 {
		constraints := make(map[string]platdef.Constraint, len(p.Constraints))
		for _, c := range p.Constraints {
			constraints[c.Event] = c
		}
		if scheduled, err := Schedule(names, constraints, p.Counters); err == nil {
			groups := make([][]string, len(scheduled))
			slots := make([]int, 0, p.Counters)
			for i, g := range scheduled {
				// Deterministic order within the group: ascending slot.
				slots = slots[:0]
				for slot := range g.Events {
					slots = append(slots, slot)
				}
				sort.Ints(slots)
				groups[i] = make([]string, len(slots))
				for k, slot := range slots {
					groups[i][k] = g.Events[slot]
				}
			}
			return groups
		}
		// An unschedulable constraint set degrades to plain chunking rather
		// than failing measurement outright.
	}
	var groups [][]string
	for start := 0; start < len(names); start += p.Counters {
		end := start + p.Counters
		if end > len(names) {
			end = len(names)
		}
		groups = append(groups, names[start:end])
	}
	return groups
}

// indexGroups resolves the events of a schedule (Groups) to their catalog
// indices, in one block: the groups a Plan holds and Measure reads.
func (p *Platform) indexGroups(groups [][]string) ([][]int32, error) {
	at := make(map[string]int32, len(p.Events))
	for i, e := range p.Events {
		at[e.Name] = int32(i)
	}
	n := 0
	for _, g := range groups {
		n += len(g)
	}
	block := make([]int32, 0, n)
	out := make([][]int32, len(groups))
	for gi, g := range groups {
		start := len(block)
		for _, name := range g {
			i, ok := at[name]
			if !ok {
				return nil, fmt.Errorf("machine: platform %s has no event %q", p.Name, name)
			}
			block = append(block, i)
		}
		out[gi] = block[start:len(block):len(block)]
	}
	return out, nil
}

// Measure measures the named events over a series of benchmark points for
// one repetition on one thread, returning a measurement vector (one value
// per point) per event. Noise is deterministic in
// (platform, event, group, point, rep, thread): re-measuring with the same
// coordinates reproduces identical values, while any coordinate change draws
// fresh noise — exactly the structure run-to-run variability has on real
// hardware.
//
// Multiplexing groups are measured concurrently; determinism is unaffected
// because every value's noise seed depends only on its coordinates.
func (p *Platform) Measure(points []Stats, names []string, rep, thread int) (map[string][]float64, error) {
	groups, err := p.indexGroups(p.Groups(names))
	if err != nil {
		return nil, err
	}
	results := make([][][]float64, len(groups))
	err = par.ForErr(0, len(groups), func(gi int) error {
		var err error
		results[gi], err = p.MeasureGroup(p.IdealCounts(points, groups[gi]), groups[gi], gi, rep, thread)
		return err
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string][]float64, len(names))
	for gi, group := range groups {
		for k, i := range group {
			out[p.Events[i].Name] = results[gi][k]
		}
	}
	return out, nil
}

// IdealCounts returns the noise-free counts of one multiplexing group's
// events (catalog indices, as a Plan's groups list them) over a series of
// benchmark points: one vector per event, in group order, sharing one
// block. They depend on neither repetition nor thread, so a collection
// computes them once per (ground truth, group) and hands them to every
// MeasureGroup read of that group.
func (p *Platform) IdealCounts(points []Stats, group []int32) [][]float64 {
	n := len(points)
	block := make([]float64, len(group)*n)
	out := make([][]float64, len(group))
	for k, i := range group {
		def := &p.Events[i]
		vec := block[k*n : (k+1)*n : (k+1)*n]
		for pi, stats := range points {
			vec[pi] = def.Count(stats)
		}
		out[k] = vec
	}
	return out
}

// MeasureGroup measures one already-scheduled multiplexing group (catalog
// indices) for one repetition on one thread: it perturbs the group's
// noise-free counts (IdealCounts over the points the thread measures) with
// each event's noise and returns one vector per event, in group order.
// groupIndex is the group's position within the full measurement's group
// schedule — it is a noise-seed coordinate, so callers that fan groups out
// across workers (internal/cat) must pass the index the group has in the
// schedule to reproduce Measure's values exactly. The method reads only
// immutable platform state and is safe to call concurrently from any
// number of goroutines.
//
// When the platform carries a fault-injection plan, a faulted group read is
// re-measured up to the plan's retry budget; a fault that persists past the
// budget surfaces as a *fault.Fault naming the coordinate. Because transient
// faults recover deterministically (see fault.Plan.At), a budget >= the
// plan's depth makes the returned vectors identical to a fault-free run.
func (p *Platform) MeasureGroup(ideal [][]float64, group []int32, groupIndex, rep, thread int) ([][]float64, error) {
	if p.Inject == nil {
		return p.measureGroupOnce(ideal, group, groupIndex, rep, thread, 0)
	}
	var lastErr error
	for attempt := 0; attempt <= p.Inject.Retries(); attempt++ {
		vectors, err := p.measureGroupOnce(ideal, group, groupIndex, rep, thread, attempt)
		if err == nil {
			return vectors, nil
		}
		lastErr = err
		if !fault.IsTransient(err) {
			break
		}
	}
	return nil, lastErr
}

// measureGroupOnce performs a single group-read attempt, consulting the
// platform's fault plan (if any) at the read's coordinate before and during
// the read.
func (p *Platform) measureGroupOnce(ideal [][]float64, group []int32, groupIndex, rep, thread, attempt int) ([][]float64, error) {
	corrupt := false
	var coord fault.Coord
	if p.Inject != nil {
		coord = fault.Coord{Site: fault.SiteMeasure, Name: p.Name, Group: groupIndex, Rep: rep, Thread: thread}
		switch kind := p.Inject.At(coord, attempt); kind {
		case fault.Panic:
			panic(&fault.Fault{Kind: kind, Coord: coord, Attempt: attempt})
		case fault.Transient:
			return nil, &fault.Fault{Kind: kind, Coord: coord, Attempt: attempt}
		case fault.Slow:
			fault.Sleep(p.Inject.Delay(coord))
		case fault.Corrupt:
			corrupt = true
		}
	}
	n := 0
	if len(group) > 0 {
		n = len(ideal[0])
	}
	block := make([]float64, len(group)*n)
	out := make([][]float64, len(group))
	for k, i := range group {
		def := &p.Events[i]
		vec := block[k*n : (k+1)*n : (k+1)*n]
		if mat.IsZero(def.RelNoise) && mat.IsZero(def.AbsNoise) {
			copy(vec, ideal[k])
		} else {
			prefix := seedPrefix(p.Name, def.Name, groupIndex)
			for pi, c := range ideal[k] {
				vec[pi] = noisy(c, def.RelNoise, def.AbsNoise, valueSeed(prefix, pi, rep, thread))
			}
		}
		if corrupt {
			for pi := range vec {
				vec[pi], _ = p.Inject.CorruptValue(coord, def.Name, pi, vec[pi])
			}
		}
		out[k] = vec
	}
	return out, nil
}
