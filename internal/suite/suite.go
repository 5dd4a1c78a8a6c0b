// Package suite wires the four CAT benchmark drivers to their platforms,
// thresholds and signature tables, giving the command-line tools, examples,
// daemon and benchmark harness one registry to drive the complete
// reproduction. A raw measurement set comes from CollectOn (Collect is
// CollectOn on the built-in default platform). The tools analyze through
// internal/analysis, which resolves a request to a benchmark, a platform
// and its collection plan, and reduces the collection straight into its
// noise profile; AnalyzeSet runs the same stages over a set in hand.
package suite

import (
	"context"
	"fmt"
	"strings"

	"github.com/perfmetrics/eventlens/internal/cat"
	"github.com/perfmetrics/eventlens/internal/core"
	"github.com/perfmetrics/eventlens/internal/machine"
)

// Benchmark bundles everything needed to run and analyze one CAT benchmark.
type Benchmark struct {
	// Name is the registry key: "cpu-flops", "gpu-flops", "branch", "dcache".
	Name string
	// Description is a one-line summary.
	Description string
	// SignatureTable and MetricTable are the paper's table numbers
	// (I-IV and V-VIII) this benchmark reproduces.
	SignatureTable string
	MetricTable    string
	// Figure is the paper's variability figure for this benchmark (2a-2d).
	Figure string
	// Class is the platform class this benchmark's kernels drive: "cpu" or
	// "gpu". The composability matrix only pairs a benchmark with platforms
	// of its class — a CPU kernel reads all-zero events on a GPU catalog.
	Class string
	// Platform is the registry name of the default simulated machine: the
	// platform the paper ran this benchmark on.
	Platform string
	// Driver runs the benchmark's kernels: b.PointNames(), b.Basis() and
	// b.GroundTruth(cfg) — the known-exact kernel behaviour collection
	// measures and the event-trust validator scores documented event
	// semantics against. Every copy of the Benchmark shares it.
	cat.Driver
	// Config holds the analysis thresholds for this benchmark.
	Config core.Config
	// Signatures are the metric signatures to define.
	Signatures []core.Signature
	// BasisSymbols are the ideal-event names for signature rendering.
	BasisSymbols []string
	// DefaultRun is the default collection configuration.
	DefaultRun cat.RunConfig
}

// All returns the four benchmarks in paper order.
func All() []Benchmark {
	return []Benchmark{
		{
			Name:           "cpu-flops",
			Description:    "CPU floating-point units (Intel Sapphire Rapids sim)",
			SignatureTable: "I",
			MetricTable:    "V",
			Figure:         "2b",
			Class:          "cpu",
			Platform:       "spr-sim",
			Driver:         cat.NewFlopsCPU(),
			Config:         core.DefaultConfig(),
			Signatures:     core.CPUFlopsSignatures(),
			BasisSymbols:   core.CPUFlopsBasisSymbols(),
			DefaultRun:     cat.DefaultRunConfig(),
		},
		{
			Name:           "gpu-flops",
			Description:    "GPU floating-point units (AMD MI250X sim)",
			SignatureTable: "II",
			MetricTable:    "VI",
			Figure:         "2c",
			Class:          "gpu",
			Platform:       "mi250x-sim",
			Driver:         cat.NewFlopsGPU(),
			Config:         core.DefaultConfig(),
			Signatures:     core.GPUFlopsSignatures(),
			BasisSymbols:   core.GPUFlopsBasisSymbols(),
			DefaultRun:     cat.DefaultRunConfig(),
		},
		{
			Name:           "branch",
			Description:    "branching unit (Intel Sapphire Rapids sim)",
			SignatureTable: "III",
			MetricTable:    "VII",
			Figure:         "2a",
			Class:          "cpu",
			Platform:       "spr-sim",
			Driver:         cat.NewBranch(),
			Config:         core.DefaultConfig(),
			Signatures:     core.BranchSignatures(),
			BasisSymbols:   core.BranchBasisSymbols(),
			DefaultRun:     cat.DefaultRunConfig(),
		},
		{
			Name:           "dcache",
			Description:    "data caches, multi-threaded pointer chases (Intel Sapphire Rapids sim)",
			SignatureTable: "IV",
			MetricTable:    "VIII",
			Figure:         "2d",
			Class:          "cpu",
			Platform:       "spr-sim",
			Driver:         cat.NewDCache(),
			Config:         core.CacheConfig(),
			Signatures:     core.CacheSignatures(),
			BasisSymbols:   core.CacheBasisSymbols(),
			DefaultRun:     cat.RunConfig{Reps: 5, Threads: 4},
		},
	}
}

// ByName looks a benchmark up by registry key.
func ByName(name string) (Benchmark, error) {
	for _, b := range All() {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("suite: unknown benchmark %q (have %s)", name, strings.Join(Names(), ", "))
}

// Names returns the registry keys in order.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, b := range all {
		names[i] = b.Name
	}
	return names
}

// Collect runs only the measurement phase on the built-in definition of the
// benchmark's default platform and returns the measurement set; a request
// resolved against a registry collects with analysis.ID.Collect instead.
// The returned set is treated as immutable by every analysis stage, so one
// set can feed many analysis configurations via AnalyzeSet.
func (b Benchmark) Collect(ctx context.Context, cfg cat.RunConfig) (*core.MeasurementSet, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	platform, err := machine.BuiltinPlatform(b.Platform)
	if err != nil {
		return nil, err
	}
	return b.CollectOn(ctx, platform, cfg)
}

// CollectOn is Collect against an explicit platform instead of the
// benchmark's default one — the cross-architecture path the composability
// matrix takes. The platform's class must match the benchmark's.
func (b Benchmark) CollectOn(ctx context.Context, p *machine.Platform, cfg cat.RunConfig) (*core.MeasurementSet, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if p.Class != b.Class {
		return nil, fmt.Errorf("suite: benchmark %s drives %s platforms, %s is %s", b.Name, b.Class, p.Name, p.Class)
	}
	return cat.Collect(b.Name, b.Driver, p, cfg)
}

// AnalyzeSet runs the analysis phase — noise filter, projection, QRCP — over
// an already-collected measurement set: the set's noise profile, then
// core.Pipeline.AnalyzeProfile, which consults ctx between stages so
// servers and job workers can abandon work whose deadline passed. Calling it
// repeatedly with different analysis configurations over one set never
// re-collects and never mutates the set.
func (b Benchmark) AnalyzeSet(ctx context.Context, set *core.MeasurementSet, analysis core.Config) (*core.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	basis, err := b.BasisFor(set)
	if err != nil {
		return nil, err
	}
	if err := set.Validate(); err != nil {
		return nil, err
	}
	pipe := &core.Pipeline{Basis: basis, Config: analysis}
	return pipe.AnalyzeProfile(ctx, core.ProfileNoise(set, analysis.Workers))
}

// BasisFor returns the expectation basis matching a measurement set's
// points (BasisForPoints).
func (b Benchmark) BasisFor(set *core.MeasurementSet) (*core.Basis, error) {
	return b.BasisForPoints(set.PointNames)
}

// BasisForPoints returns the expectation basis matching a set's points: the
// full basis when they are every benchmark point, or the row subset matching
// them when the set was collected under MinimalKernels (or loaded from a
// file covering fewer points). Every consumer that pairs a basis with a set
// or its noise profile — analysis, explain, the CLIs — goes through this,
// so reduced sets never silently misalign with full bases.
func (b Benchmark) BasisForPoints(points []string) (*core.Basis, error) {
	basis, err := b.Basis()
	if err != nil {
		return nil, err
	}
	if len(points) == len(basis.PointNames) {
		same := true
		for i, n := range points {
			if basis.PointNames[i] != n {
				same = false
				break
			}
		}
		if same {
			return basis, nil
		}
	}
	return basis.SelectPoints(points)
}
