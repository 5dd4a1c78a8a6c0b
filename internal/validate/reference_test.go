package validate

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/perfmetrics/eventlens/internal/analysis"
	"github.com/perfmetrics/eventlens/internal/cat"
	"github.com/perfmetrics/eventlens/internal/core"
	"github.com/perfmetrics/eventlens/internal/machine"
	"github.com/perfmetrics/eventlens/internal/mat"
)

// referenceRun is the validation computed straight from raw measurement
// sets, the reference RunIn's reading of noise profiles must reproduce:
// each benchmark's default run is collected, and every event is reduced
// from its repetition vectors with MaxRNMSE and MeanVector.
func referenceRun(ctx context.Context, reg *machine.Registry, req Request) (*Report, error) {
	res, err := req.resolve(reg)
	if err != nil {
		return nil, err
	}
	report := &Report{
		Platform:   res.platform,
		Benchmarks: []string{},
		Tolerances: res.tol,
		Counts:     make(map[string]int),
	}
	var catalog []machine.EventDef
	measured := make(map[string][]float64)
	expected := make(map[string][]float64)
	noise := make(map[string]float64)
	covered := make(map[string]bool)
	for _, b := range res.benches {
		p, err := reg.Platform(res.platform)
		if err != nil {
			return nil, err
		}
		if catalog == nil {
			catalog = p.Events
		}
		cfg := b.DefaultRun
		cfg.Workers = res.workers
		cfg.Faults = res.faults
		perThread, err := b.GroundTruth(cfg)
		if err != nil {
			return nil, err
		}
		set, err := cat.Collect(b.Name, b.Driver, p, cfg)
		if err != nil {
			if res.faults != "" {
				report.Degraded = append(report.Degraded, DegradedBenchmark{Benchmark: b.Name, Error: err.Error()})
				continue
			}
			return nil, err
		}
		report.Benchmarks = append(report.Benchmarks, b.Name)
		report.Points += len(set.PointNames)
		nPoints := len(set.PointNames)
		for _, name := range set.Order {
			reps := set.RepVectors(name)
			if v := core.MaxRNMSE(reps); v > noise[name] {
				noise[name] = v
			}
			measured[name] = append(measured[name], core.MeanVector(reps)...)
			covered[name] = true
		}
		for _, def := range p.Events {
			if _, present := set.Events[def.Name]; !present {
				continue
			}
			docVecs := make([][]float64, len(perThread))
			for t, stats := range perThread {
				vec := make([]float64, nPoints)
				for pi := range vec {
					vec[pi], _ = def.DocExpectation(stats[pi])
				}
				docVecs[t] = vec
			}
			expected[def.Name] = append(expected[def.Name], core.MedianOverThreads(docVecs)...)
		}
	}
	if len(report.Benchmarks) == 0 {
		return nil, fmt.Errorf("%w (%d lost)", ErrAllDegraded, len(report.Degraded))
	}
	for _, def := range catalog {
		name := def.Name
		if !covered[name] {
			report.Dropped = append(report.Dropped, name)
			continue
		}
		trust := classify(res.tol, def.Documented, noise[name], measured[name], expected[name])
		trust.Event = name
		report.Counts[trust.Verdict]++
		report.Events = append(report.Events, trust)
	}
	return report, nil
}

// diffReports names the first field in which got differs from want,
// comparing floats by bit pattern so NaN equals NaN; "" means equal.
func diffReports(got, want *Report) string {
	if got.Platform != want.Platform || !slices.Equal(got.Benchmarks, want.Benchmarks) || got.Points != want.Points ||
		got.Tolerances != want.Tolerances || !reflect.DeepEqual(got.Counts, want.Counts) ||
		!slices.Equal(got.Dropped, want.Dropped) || !slices.Equal(got.Degraded, want.Degraded) {
		return fmt.Sprintf("header %v %v %d %v %v dropped %d degraded %v, want %v %v %d %v %v dropped %d degraded %v",
			got.Platform, got.Benchmarks, got.Points, got.Tolerances, got.Counts, len(got.Dropped), got.Degraded,
			want.Platform, want.Benchmarks, want.Points, want.Tolerances, want.Counts, len(want.Dropped), want.Degraded)
	}
	if len(got.Events) != len(want.Events) {
		return fmt.Sprintf("%d events, want %d", len(got.Events), len(want.Events))
	}
	bits := math.Float64bits
	for i, g := range got.Events {
		w := want.Events[i]
		if g.Event != w.Event || g.Verdict != w.Verdict || g.Documented != w.Documented ||
			bits(g.Noise) != bits(w.Noise) || bits(g.Scale) != bits(w.Scale) || bits(g.FitRNMSE) != bits(w.FitRNMSE) ||
			bits(g.Cosine) != bits(w.Cosine) || bits(g.MeanMeasured) != bits(w.MeanMeasured) || bits(g.MeanExpected) != bits(w.MeanExpected) {
			return fmt.Sprintf("event %d = %+v, want %+v", i, g, w)
		}
	}
	if g, w := got.Format(), want.Format(); g != w {
		return "text reports differ"
	}
	return ""
}

// TestRunMatchesReference: RunIn equals the raw-set reference on every
// built-in platform, clean, under transient faults that drop groups (and
// on graviton a whole benchmark), and under corrupt faults that write NaN
// and ±Inf into readings — which the text report must still show, and
// the JSON envelope must still refuse.
func TestRunMatchesReference(t *testing.T) {
	reg := builtins(t)
	ctx := context.Background()
	for _, faults := range []string{"", "seed=3,transient=0.1,retries=0", "seed=3,corrupt=0.1"} {
		nonFinite := false
		for _, platform := range reg.Names() {
			req := Request{Platform: platform, Faults: faults}
			want, err := referenceRun(ctx, reg, req)
			if err != nil {
				t.Fatalf("%s faults=%q: reference: %v", platform, faults, err)
			}
			got, err := RunIn(ctx, reg, req)
			if err != nil {
				t.Fatalf("%s faults=%q: %v", platform, faults, err)
			}
			if d := diffReports(got, want); d != "" {
				t.Fatalf("%s faults=%q: %s", platform, faults, d)
			}
			_, encErr := NewEnvelope(got).Encode()
			text := got.Format()
			shows := strings.Contains(text, "NaN") || strings.Contains(text, "Inf")
			nonFinite = nonFinite || shows
			if shows != (encErr != nil) {
				t.Errorf("%s faults=%q: text shows a non-finite value: %v; encoding error: %v", platform, faults, shows, encErr)
			}
			if strings.Contains(faults, "transient") && len(got.Dropped) == 0 {
				t.Errorf("%s faults=%q dropped no events", platform, faults)
			}
		}
		if corrupt := strings.Contains(faults, "corrupt"); nonFinite != corrupt {
			t.Errorf("faults=%q: a report shows NaN or ±Inf: %v, want %v", faults, nonFinite, corrupt)
		}
	}
}

// TestValidateReadsAnalysisProfiles: the measurement set validate reads for
// a (platform, benchmark) pair is the set /v1/analyze collects for that
// benchmark's default run on the platform — the same measurement key, and
// a profile equal, bit for bit, to the raw set's.
func TestValidateReadsAnalysisProfiles(t *testing.T) {
	reg := builtins(t)
	ctx := context.Background()
	for _, platform := range reg.Names() {
		pairs := 0
		profile := func(ctx context.Context, id analysis.ID) (*core.NoiseProfile, error) {
			pairs++
			analyzed, err := analysis.Request{Benchmark: id.Bench.Name, Platform: platform}.Resolve(reg, 0)
			if err != nil {
				return nil, err
			}
			if id.MeasurementKey() != analyzed.MeasurementKey() {
				t.Errorf("%s: validate reads %s, analyze collects %s", platform, id.MeasurementKey(), analyzed.MeasurementKey())
			}
			prof, err := analyzed.Profile(ctx)
			if err != nil {
				return nil, err
			}
			p, err := reg.Platform(platform)
			if err != nil {
				return nil, err
			}
			set, err := cat.Collect(id.Bench.Name, id.Bench.Driver, p, id.Bench.DefaultRun)
			if err != nil {
				return nil, err
			}
			if d := diffProfile(prof, set); d != "" {
				t.Errorf("%s %s: %s", platform, id.Bench.Name, d)
			}
			return prof, nil
		}
		if _, err := RunWith(ctx, reg, Request{Platform: platform}, profile); err != nil {
			t.Fatalf("%s: %v", platform, err)
		}
		if pairs == 0 {
			t.Fatalf("%s: validation read no profile", platform)
		}
	}
}

// diffProfile names the first way prof differs from the raw set it should
// be the profile of; "" means none.
func diffProfile(prof *core.NoiseProfile, set *core.MeasurementSet) string {
	if prof.Benchmark != set.Benchmark || prof.Platform != set.Platform || !slices.Equal(prof.PointNames, set.PointNames) ||
		!slices.Equal(prof.Order, set.Order) || !slices.Equal(prof.Dropped, set.Dropped) {
		return "identity fields differ from the raw set's"
	}
	for i, name := range set.Order {
		reps := set.RepVectors(name)
		noise, mean := prof.Reduction(i)
		want := core.MeanVector(reps)
		if !slices.ContainsFunc(reps, func(v []float64) bool { return !mat.AllZero(v) }) {
			want = nil // an all-zero event's mean
		}
		if math.Float64bits(noise) != math.Float64bits(core.MaxRNMSE(reps)) || (mean == nil) != (want == nil) || !slices.Equal(mean, want) {
			return fmt.Sprintf("event %s: reduction differs from the raw set's", name)
		}
	}
	return ""
}
