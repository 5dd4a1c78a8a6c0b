// Package analysis is the request model of the analysis family — analyze,
// define, explain and presets — that eventlensd, cmd/analyze and the
// composability matrix share: the request types and their canonical keys,
// their resolution against a platform registry, the staged computation (a
// measurement set's noise profile, then the analysis over it) and the
// renderings of an analysis each endpoint serves. Like internal/validate
// and internal/matrix it takes the registry as a value and returns values;
// callers own transport, caching and encoding.
package analysis

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"github.com/perfmetrics/eventlens/internal/cat"
	"github.com/perfmetrics/eventlens/internal/core"
	"github.com/perfmetrics/eventlens/internal/machine"
	"github.com/perfmetrics/eventlens/internal/suite"
)

// ErrNotFound and ErrInvalid classify the requests this package rejects:
// one naming a benchmark, metric or event that does not exist, and one that
// is malformed. Servers answer them 404 and 400.
var (
	ErrNotFound = errors.New("analysis: not found")
	ErrInvalid  = errors.New("analysis: invalid request")
)

// rejection is a rejected request: its message, classified by kind.
type rejection struct {
	kind error
	msg  string
}

func (e rejection) Error() string { return e.msg }
func (e rejection) Unwrap() error { return e.kind }

func invalid(msg string) error  { return rejection{ErrInvalid, msg} }
func notFound(msg string) error { return rejection{ErrNotFound, msg} }

// Request selects one analysis: a benchmark, optionally the platform to
// collect it on, and optional overrides of its default collection and
// analysis configuration. Its JSON form is the /v1/analyze and /v1/jobs
// payload.
//
// lint:cachekey — every result-affecting field must reach Key().
type Request struct {
	Benchmark string `json:"benchmark"`
	// Platform names the registered platform to collect on, by its full or
	// short name ("graviton"); its class must match the benchmark's. Empty
	// means the benchmark's default platform.
	Platform string `json:"platform,omitempty"`
	// Run and Config override the benchmark's DefaultRun and Config.
	Run    *cat.RunConfig `json:"run,omitempty"`
	Config *core.Config   `json:"config,omitempty"`
}

// ID is a resolved Request: the identity of one analysis.
type ID struct {
	Bench suite.Benchmark
	// Platform is the registry's live platform to collect on
	// (machine.Registry.Platform), whose collection plan every collection
	// on it shares, and Ref its name in keys (machine.Registry.Ref).
	Platform *machine.Platform
	Ref      string
	Run      cat.RunConfig
	Config   core.Config
}

// Resolve validates the request against a registry and fills its
// defaults: the benchmark's DefaultRun, Config and Platform, and workers
// for each worker count the request leaves 0.
func (r Request) Resolve(reg *machine.Registry, workers int) (ID, error) {
	if r.Benchmark == "" {
		return ID{}, invalid(`missing required field "benchmark"`)
	}
	bench, err := suite.ByName(r.Benchmark)
	if err != nil {
		return ID{}, notFound(err.Error())
	}
	run := bench.DefaultRun
	if r.Run != nil {
		run = *r.Run
	}
	if run.Workers == 0 {
		run.Workers = workers
	}
	if err := run.Validate(); err != nil {
		return ID{}, invalid(err.Error())
	}
	cfg := bench.Config
	if r.Config != nil {
		cfg = *r.Config
	}
	if cfg.Workers == 0 {
		cfg.Workers = workers
	}
	if err := cfg.Validate(); err != nil {
		return ID{}, invalid(err.Error())
	}
	p, err := reg.Platform(cmp.Or(r.Platform, bench.Platform))
	if err != nil {
		return ID{}, invalid(err.Error())
	}
	if p.Class != bench.Class {
		return ID{}, invalid(fmt.Sprintf("analysis: benchmark %s drives %s platforms, %s is %s", bench.Name, bench.Class, p.Name, p.Class))
	}
	ref, err := reg.Ref(p.Name)
	if err != nil {
		return ID{}, err
	}
	return ID{Bench: bench, Platform: p, Ref: ref, Run: run, Config: cfg}, nil
}

// Key is the canonical cache/store/shard key of the request's analysis
// over a registry (ID.Key).
func (r Request) Key(reg *machine.Registry) (string, error) {
	id, err := r.Resolve(reg, 0)
	if err != nil {
		return "", err
	}
	return id.Key(), nil
}

// Key is the analysis's canonical cache/store/shard key:
// "<benchmark>|<platform Ref>|<run>|<config>". The pipeline is
// deterministic, so equal keys mean equal results — in memory, on disk and
// on any replica. Worker counts never reach it.
func (id ID) Key() string {
	return fmt.Sprintf("%s|%s|%s|%s", id.Bench.Name, id.Ref, id.Run, id.Config)
}

// MeasurementKey names the measurement set the analysis reads: the
// platform's Ref, then cat.RunConfig.MeasurementKey. Every analysis
// configuration sharing it reads one collection and one noise profile.
func (id ID) MeasurementKey() string {
	return id.Ref + "|" + id.Run.MeasurementKey(id.Bench.Name)
}

// measure runs the measurement stage of the benchmark with the resolved
// run on the resolved platform (cat.Measure).
func (id ID) measure(ctx context.Context) (*core.Readings, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return cat.Measure(id.Bench.Name, id.Bench.Driver, id.Platform, id.Run)
}

// Collect collects the benchmark's raw measurement set with the resolved
// run on the resolved platform: for a measurement file, or for a caller
// that needs every reading. Analyses read Profile instead.
func (id ID) Collect(ctx context.Context) (*core.MeasurementSet, error) {
	r, err := id.measure(ctx)
	if err != nil {
		return nil, err
	}
	return r.Set(), nil
}

// Profile collects the ID's measurements and reduces each event straight
// into the noise profile on the analysis worker count: the noise pass is
// the analysis's first stage. No measurement set is built; the profile
// equals ProfileSet of Collect's set.
func (id ID) Profile(ctx context.Context) (*core.NoiseProfile, error) {
	r, err := id.measure(ctx)
	if err != nil {
		return nil, err
	}
	return r.Profile(id.Config.Workers), nil
}

// ProfileSet validates a measurement set of the benchmark and reduces it
// to its noise profile on the analysis worker count: the noise pass is the
// analysis's first stage. The set can be dropped once profiled.
func (id ID) ProfileSet(set *core.MeasurementSet) (*core.NoiseProfile, error) {
	if err := set.Validate(); err != nil {
		return nil, err
	}
	return core.ProfileNoise(set, id.Config.Workers), nil
}

// Analyze runs the analysis stages over a noise profile of the ID's
// measurement set (core.Pipeline.AnalyzeProfile) and defines the
// benchmark's metrics.
func (id ID) Analyze(ctx context.Context, prof *core.NoiseProfile) (*Analysis, error) {
	basis, err := id.Bench.BasisForPoints(prof.PointNames)
	if err != nil {
		return nil, err
	}
	res, err := (&core.Pipeline{Basis: basis, Config: id.Config}).AnalyzeProfile(ctx, prof)
	if err != nil {
		return nil, err
	}
	defs, err := res.DefineMetrics(id.Bench.Signatures)
	if err != nil {
		return nil, err
	}
	return &Analysis{ID: id, Profile: prof, Result: res, Defs: defs}, nil
}

// Run is the one-shot analysis of a request: resolution, collection, the
// noise profile, then the analysis stages.
func Run(ctx context.Context, reg *machine.Registry, req Request, workers int) (*Analysis, error) {
	id, err := req.Resolve(reg, workers)
	if err != nil {
		return nil, err
	}
	prof, err := id.Profile(ctx)
	if err != nil {
		return nil, err
	}
	return id.Analyze(ctx, prof)
}

// DefineRequest solves one signature — a named one from the benchmark's
// table, or a custom coefficient vector — against an analysis. Its JSON
// form is the /v1/metrics/define payload.
//
// lint:cachekey — every result-affecting field must reach Key().
type DefineRequest struct {
	Request
	Metric    string          `json:"metric,omitempty"`
	Signature *core.Signature `json:"signature,omitempty"`
}

// Key is the request's analysis key and its signature's JSON. A named
// metric resolves to its table signature first, so a named request and the
// custom signature it names share one key; a custom signature of the wrong
// dimension is rejected here, before any analysis.
func (r DefineRequest) Key(reg *machine.Registry) (string, error) {
	if (r.Metric == "") == (r.Signature == nil) {
		return "", invalid(`exactly one of "metric" (a name from the benchmark's table) or "signature" must be set`)
	}
	id, err := r.Resolve(reg, 0)
	if err != nil {
		return "", err
	}
	sig, err := r.signature(id.Bench)
	if err != nil {
		return "", err
	}
	sigJSON, err := json.Marshal(sig)
	if err != nil {
		return "", invalid("signature: " + err.Error())
	}
	return id.Key() + "|" + string(sigJSON), nil
}

// signature resolves the request's signature against its benchmark.
func (r DefineRequest) signature(bench suite.Benchmark) (core.Signature, error) {
	if r.Signature == nil {
		if i := slices.IndexFunc(bench.Signatures, func(s core.Signature) bool { return s.Name == r.Metric }); i >= 0 {
			return bench.Signatures[i], nil
		}
		names := make([]string, len(bench.Signatures))
		for i, sig := range bench.Signatures {
			names[i] = strconv.Quote(sig.Name)
		}
		return core.Signature{}, notFound(fmt.Sprintf("benchmark %q has no metric %q (have %s)", bench.Name, r.Metric, strings.Join(names, ", ")))
	}
	if r.Signature.Name == "" {
		return core.Signature{}, invalid("signature.name must be set")
	}
	if err := r.Signature.CheckDim(len(bench.BasisSymbols)); err != nil {
		return core.Signature{}, invalid(err.Error())
	}
	return *r.Signature, nil
}

// ExplainRequest decodes raw events of an analysis into basis vocabulary.
// Its JSON form is the /v1/events/explain payload.
//
// lint:cachekey — every result-affecting field must reach Key().
type ExplainRequest struct {
	Request
	// Event is a kept raw-event name, or "all" (the default) for every kept
	// event.
	Event string `json:"event,omitempty"`
}

// Key is the request's analysis key and its event ("" and "all" are one
// key). An event outside the resolved platform's definition can never be
// kept, so it is rejected here, before any analysis.
func (r ExplainRequest) Key(reg *machine.Registry) (string, error) {
	id, err := r.Resolve(reg, 0)
	if err != nil {
		return "", err
	}
	event := cmp.Or(r.Event, "all")
	if _, ok := id.Platform.Lookup(event); event != "all" && !ok {
		return "", notKept(event)
	}
	return id.Key() + "|" + event, nil
}

// Render is the /v1/events/explain response of the request's analysis.
func (r ExplainRequest) Render(a *Analysis) (any, error) {
	return a.Explain(cmp.Or(r.Event, "all"))
}

// notKept rejects an explanation of an event the analysis did not keep.
func notKept(event string) error {
	return notFound(fmt.Sprintf("event %q not among the kept events (noisy, all-zero, or unknown)", event))
}
