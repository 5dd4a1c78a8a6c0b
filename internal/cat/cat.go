// Package cat implements the Counter Analysis Toolkit benchmarks on top of
// the workload simulators. Each benchmark is a Driver: it names its points,
// builds its expectation basis, and executes its microkernels for their
// known-exact ground-truth statistics. Collection is one path shared by all
// of them: Measure computes a driver's ground truth and reads every raw
// event of a platform over it per point, repetition and thread, on the
// platform's collection plan. Its readings feed two sinks: the raw
// measurement set (Collect) and the noise profile, reduced straight off
// the readings. Event validation reads a driver's ground truth directly, for
// the counts each event's documentation predicts, and the measurements
// through the noise profile.
//
// Four drivers are provided, mirroring the paper:
//
//	FlopsCPU  — Section III, CPU floating-point units (16 kernels x 3 loops)
//	FlopsGPU  — Section III-C, GPU VALU units (15 kernels x 3 loops)
//	Branch    — Section III-D, branching unit (the 11 kernels of Eq. 3)
//	DCache    — Section III-E, multi-threaded pointer chases over the cache
//	            hierarchy
package cat

import (
	"fmt"
	"slices"

	"github.com/perfmetrics/eventlens/internal/core"
	"github.com/perfmetrics/eventlens/internal/fault"
	"github.com/perfmetrics/eventlens/internal/machine"
	"github.com/perfmetrics/eventlens/internal/par"
)

// RunConfig controls a benchmark run. Its JSON form is canonical — every
// field has a stable lowercase key and round-trips exactly — so it can serve
// as an API payload and as part of a result-cache key.
//
// lint:cachekey — every result-affecting field must reach String().
type RunConfig struct {
	// Reps is the number of benchmark repetitions (the paper collects the
	// measurement vector from multiple repetitions to quantify noise).
	Reps int `json:"reps"`
	// Threads is the number of concurrent measuring threads; only the data
	// cache benchmark uses more than one.
	Threads int `json:"threads"`
	// Workers bounds the collection worker pool: 0 (the default, omitted
	// from JSON) means GOMAXPROCS, 1 is the serial path. Measurement noise
	// is seeded purely by (platform, event, group, point, rep, thread)
	// coordinates, so any worker count collects byte-identical data —
	// which is why Workers is excluded from String() and cache keys.
	// lint:cachekey-exempt noise is seeded purely by measurement coordinates, so any worker count collects byte-identical data
	Workers int `json:"workers,omitempty"`
	// Faults optionally enables deterministic fault injection during
	// collection, as a fault.Spec string ("seed=7,transient=0.05"). Empty
	// (the default, omitted from JSON) measures cleanly. Unlike Workers,
	// Faults changes results, so it is part of String() and cache keys —
	// but only when set, keeping clean-run keys identical to earlier
	// releases.
	Faults string `json:"faults,omitempty"`
	// MinimalKernels opts into spanning-kernel collection (DESIGN.md §14):
	// before measuring, the benchmark's points are clustered by cosine
	// similarity of their ideal catalog responses (internal/similarity) and
	// only each cluster's first point is measured, shrinking collection for
	// redundancy-heavy benchmarks. Analysis then runs against the matching
	// row subset of the expectation basis. Like Faults it changes the
	// collected bytes (fewer points, and noise is seeded by point *index*),
	// so it is part of String() and cache keys when set.
	MinimalKernels bool `json:"minimal_kernels,omitempty"`
}

// Collection bounds. Every committed caller stays far below them (at most 9
// repetitions and 4 threads); they keep reps × threads × groups from
// overflowing and bound the largest collection. A set holds reps × threads
// × events × points floats — at the caps about 107 MB for mi250x's 1,160
// events × 45 points — and each DCache thread holds about 5.6 MB of chase
// plans while it runs.
const (
	// MaxThreads bounds RunConfig.Threads.
	MaxThreads = 16
	// MaxSamples bounds RunConfig.Reps × RunConfig.Threads.
	MaxSamples = 256
)

// DefaultRunConfig matches the paper's setup: 5 repetitions, single thread.
func DefaultRunConfig() RunConfig {
	return RunConfig{Reps: 5, Threads: 1}
}

// String renders the configuration in a canonical compact form suitable for
// cache keys: equal configurations always render identically. Workers is
// excluded: it cannot change results, so it must not split cache entries.
// A fault spec is included — injection does change results — rendered in
// the spec's canonical form so equivalent spellings share a cache entry.
func (c RunConfig) String() string {
	s := fmt.Sprintf("reps=%d,threads=%d", c.Reps, c.Threads)
	if c.MinimalKernels {
		// Only when set, keeping full-collection keys identical to earlier
		// releases.
		s += ",minimal=1"
	}
	if c.Faults != "" {
		if spec, err := fault.ParseSpec(c.Faults); err == nil {
			return s + ",faults=" + spec.String()
		}
		return s + ",faults=" + c.Faults
	}
	return s
}

// MeasurementKey renders the canonical identity of the measurement set a
// benchmark run produces: the (benchmark, RunConfig) pair that fully
// determines collection, in the same canonical form String uses. Every
// analysis configuration sharing this key consumes the same measurement
// set, so the serving tier batches on it — one collection pass serves many
// analyses — and Workers stays excluded for the same reason it is excluded
// from String.
func (c RunConfig) MeasurementKey(benchmark string) string {
	return benchmark + "|" + c.String()
}

// Validate checks the configuration.
func (c RunConfig) Validate() error {
	if c.Reps < 1 {
		return fmt.Errorf("cat: reps must be >= 1, got %d", c.Reps)
	}
	if c.Threads < 1 {
		return fmt.Errorf("cat: threads must be >= 1, got %d", c.Threads)
	}
	if c.Threads > MaxThreads {
		return fmt.Errorf("cat: threads must be <= %d, got %d", MaxThreads, c.Threads)
	}
	// Divided, not multiplied: reps × threads may overflow.
	if c.Reps > MaxSamples/c.Threads {
		return fmt.Errorf("cat: reps*threads must be <= %d, got reps=%d threads=%d", MaxSamples, c.Reps, c.Threads)
	}
	if c.Workers < 0 {
		return fmt.Errorf("cat: workers must be >= 0 (0 means GOMAXPROCS), got %d", c.Workers)
	}
	if c.Faults != "" {
		if _, err := fault.ParseSpec(c.Faults); err != nil {
			return fmt.Errorf("cat: bad faults spec: %v", err)
		}
	}
	return nil
}

// injected resolves the configuration's fault spec onto the platform:
// platforms pick up an injection plan when the config carries one, and the
// (already validated) spec parsing cannot fail here. With no spec the
// platform is returned unchanged.
func injected(p *machine.Platform, cfg RunConfig) *machine.Platform {
	if cfg.Faults == "" {
		return p
	}
	plan, err := fault.Parse(cfg.Faults)
	if err != nil {
		return p
	}
	return p.WithInjector(plan)
}

// Driver is what one CAT benchmark contributes to collection: the labels of
// its points, its expectation basis, and the known-exact behaviour of its
// kernels. Everything else — configuration checks, spanning selection,
// measurement, fault degradation — is Measure's. Implementations must be
// safe for concurrent use: one driver serves every collection of its
// benchmark.
type Driver interface {
	// PointNames labels the benchmark's full point set.
	PointNames() []string
	// Basis constructs the expectation basis over PointNames.
	Basis() (*core.Basis, error)
	// GroundTruth runs the kernels under cfg and returns per-point
	// statistics for every point: one slice per measuring thread, or a
	// single slice every thread measures when the points do not depend on
	// the thread. cfg.MinimalKernels is ignored. A driver may memoize what
	// its kernels compute, so callers treat the result as read-only.
	GroundTruth(cfg RunConfig) ([][]machine.Stats, error)
}

// Collect runs one benchmark on a platform (Measure) and assembles the raw
// measurement set of its readings.
func Collect(benchmark string, d Driver, p *machine.Platform, cfg RunConfig) (*core.MeasurementSet, error) {
	r, err := Measure(benchmark, d, p, cfg)
	if err != nil {
		return nil, err
	}
	return r.Set(), nil
}

// Measure is the measurement stage every collection runs: it checks cfg,
// computes the driver's ground truth, narrows it to the spanning subset
// under cfg.MinimalKernels, and reads every event of the platform over it
// on the platform's collection plan (see measure). Its readings feed
// either sink: Set for the raw measurement set, Profile for the noise
// profile alone.
func Measure(benchmark string, d Driver, p *machine.Platform, cfg RunConfig) (*core.Readings, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	truth, err := d.GroundTruth(cfg)
	if err != nil {
		return nil, err
	}
	names := d.PointNames()
	if cfg.MinimalKernels {
		basis, err := d.Basis()
		if err != nil {
			return nil, err
		}
		if names, truth, err = minimalSubset(p, basis, names, truth); err != nil {
			return nil, err
		}
	}
	return measure(benchmark, p, names, truth, cfg)
}

// measure reads every event of the platform over the named points' ground
// truth (a driver's GroundTruth) for each repetition and thread of cfg,
// which must already be valid, on the platform's plan (machine.Platform.Plan,
// built once per platform). Each group's noise-free counts are computed
// once per ground-truth thread and dropped with the collection. The (rep,
// thread, group) space fans out across cfg.Workers; each task's noise is
// seeded purely by its coordinates — the group index is the one the group
// holds in the plan's schedule — so every worker count reproduces the
// serial path's bytes. The readings list the events in catalog order.
//
// A transient fault that survives the whole retry budget drops its group's
// events (listed in the readings' Dropped) instead of failing the run; any
// other fault, injected panics included, or losing every event is an error.
func measure(benchmark string, p *machine.Platform, names []string, truth [][]machine.Stats, cfg RunConfig) (*core.Readings, error) {
	if err := checkTruth(truth, cfg); err != nil {
		return nil, err
	}
	plan := p.Plan()
	p = injected(p, cfg)
	groups := plan.Groups
	nG := len(groups)
	ideal := idealCounts(p, truth, groups, cfg.Workers)
	tasks := cfg.Reps * cfg.Threads * nG
	results := make([][][]float64, tasks)
	faults := make([]*fault.Fault, tasks)
	err := par.ForErr(cfg.Workers, tasks, func(i int) error {
		gi := i % nG
		rt := i / nG
		thread := rt % cfg.Threads
		rep := rt / cfg.Threads
		vectors, err := p.MeasureGroup(ideal[truthIndex(truth, thread)*nG+gi], groups[gi], gi, rep, thread)
		if err != nil {
			if f, ok := fault.As(err); ok && f.Transient() {
				faults[i] = f
				return nil
			}
			return err
		}
		results[i] = vectors
		return nil
	})
	if err != nil {
		return nil, err
	}
	// A group that faulted at any (rep, thread) is dropped wholesale: partial
	// per-rep coverage would silently bias the noise statistics.
	droppedGroup := make([]bool, nG)
	for i, f := range faults {
		if f != nil {
			droppedGroup[i%nG] = true
		}
	}
	order, slot := plan.Names, plan.Slot
	var dropped []string
	if slices.Contains(droppedGroup, true) {
		order = nil
		var slots []machine.Slot
		for i, name := range plan.Names {
			if s := plan.Slot(i); droppedGroup[s.Group] {
				dropped = append(dropped, name)
			} else {
				order = append(order, name)
				slots = append(slots, s)
			}
		}
		if len(order) == 0 {
			return nil, fmt.Errorf("cat: all %d events dropped by fault injection on %s", len(plan.Names), p.Name)
		}
		slot = func(i int) machine.Slot { return slots[i] }
	}
	return &core.Readings{
		Benchmark:  benchmark,
		Platform:   p.Name,
		PointNames: names,
		Order:      order,
		Dropped:    dropped,
		Reps:       cfg.Reps,
		Threads:    cfg.Threads,
		Read: func(i int, dst [][]float64) {
			s := slot(i)
			for rt := range dst {
				dst[rt] = results[rt*nG+int(s.Group)][s.Index]
			}
		},
	}, nil
}

// idealCounts computes each group's noise-free counts under each
// ground-truth thread, at index truth thread × len(groups) + group: every
// repetition, and every measuring thread that shares a truth, reads the
// same ones.
func idealCounts(p *machine.Platform, truth [][]machine.Stats, groups [][]int32, workers int) [][][]float64 {
	ideal := make([][][]float64, len(truth)*len(groups))
	par.For(workers, len(ideal), func(i int) {
		ideal[i] = p.IdealCounts(truth[i/len(groups)], groups[i%len(groups)])
	})
	return ideal
}

// checkTruth rejects ground truth that does not cover cfg's threads.
func checkTruth(truth [][]machine.Stats, cfg RunConfig) error {
	if len(truth) != 1 && len(truth) != cfg.Threads {
		return fmt.Errorf("cat: ground truth covers %d threads, run measures %d", len(truth), cfg.Threads)
	}
	return nil
}

// truthIndex is the index of the ground truth one thread measures.
func truthIndex(truth [][]machine.Stats, thread int) int {
	if len(truth) == 1 {
		return 0
	}
	return thread
}
