// Package validate implements event-trust validation (DESIGN.md §14): every
// event in a platform's catalog is scored against its *documented* semantics
// using the CAT benchmarks' known-exact kernels as ground truth. The measured
// per-point counts are compared with the counts the vendor documentation
// predicts (EventDef.DocExpectation), and each event receives a trust verdict
// with the evidence behind it — the proportionality scale, the residual of
// the fit, and the run-to-run noise level.
//
// The verdict taxonomy, in decision order:
//
//	noisy   — run-to-run variability (max MaxRNMSE over the benchmarks)
//	          exceeds NoisyTau; the counts cannot be trusted regardless of
//	          what they correlate with.
//	valid   — documented and measured counts agree: the fit residual is
//	          within FitTol and the proportionality scale is within ScaleTol
//	          of 1. Undetectable events (documented to count nothing the
//	          kernels exercise, and counting nothing) are valid too.
//	scaled  — the measurement is an excellent linear fit to the documented
//	          counts but at a scale off by more than ScaleTol (a counter
//	          ticking per-uop where the manual says per-instruction, a
//	          double-counted FMA, a unit prescaler).
//	derived — the measurement correlates with the documentation directionally
//	          (cosine >= DerivedCos) without fitting it, or the event is
//	          undocumented but counts something real.
//	bogus   — the measurement bears no resemblance to the documentation:
//	          documented to count but counting nothing, counting despite a
//	          documentation that predicts silence, or pointing somewhere
//	          entirely different.
//
// Like every analysis in this repository the validator is deterministic:
// reports are byte-identical across worker counts and across the CLI and the
// daemon (see Envelope).
package validate

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"

	"github.com/perfmetrics/eventlens/internal/analysis"
	"github.com/perfmetrics/eventlens/internal/canonjson"
	"github.com/perfmetrics/eventlens/internal/cat"
	"github.com/perfmetrics/eventlens/internal/core"
	"github.com/perfmetrics/eventlens/internal/fault"
	"github.com/perfmetrics/eventlens/internal/machine"
	"github.com/perfmetrics/eventlens/internal/mat"
	"github.com/perfmetrics/eventlens/internal/platdef"
	"github.com/perfmetrics/eventlens/internal/suite"
)

// ErrAllDegraded reports a fault-injected validation that lost every
// benchmark: there is no partial report to degrade to. Servers map it to 503
// (the daemon is injecting faults, not the client misbehaving).
var ErrAllDegraded = errors.New("validate: every benchmark degraded under fault injection")

// Verdicts, in report order.
const (
	VerdictValid   = "valid"
	VerdictScaled  = "scaled"
	VerdictDerived = "derived"
	VerdictNoisy   = "noisy"
	VerdictBogus   = "bogus"
)

// VerdictOrder lists the verdicts in canonical report order.
func VerdictOrder() []string {
	return []string{VerdictValid, VerdictScaled, VerdictDerived, VerdictNoisy, VerdictBogus}
}

// Tolerances are the thresholds of the trust decision tree.
//
// lint:cachekey — the thresholds change verdicts, so all must reach String().
type Tolerances struct {
	// NoisyTau is the MaxRNMSE above which an event is noisy (mirrors the
	// analysis pipeline's noise filter, but against the validator's runs).
	NoisyTau float64 `json:"noisy_tau"`
	// FitTol is the maximum relative residual ||m - s*d|| / ||m|| for the
	// measurement to count as a linear fit of the documentation.
	FitTol float64 `json:"fit_tol"`
	// ScaleTol bounds |s - 1| for a fitting event to count as valid rather
	// than scaled.
	ScaleTol float64 `json:"scale_tol"`
	// DerivedCos is the minimum cosine between measured and documented
	// vectors for a non-fitting event to count as derived rather than bogus.
	DerivedCos float64 `json:"derived_cos"`
}

// DefaultTolerances returns the documented defaults. FitTol sits well above
// the noise floor a 5-rep mean leaves on legitimately noisy-but-valid events,
// and well below the distance to any genuinely mis-documented catalog entry.
func DefaultTolerances() Tolerances {
	return Tolerances{NoisyTau: 1e-1, FitTol: 5e-2, ScaleTol: 1e-2, DerivedCos: 0.5}
}

// Validate checks the thresholds are usable: noisy_tau, fit_tol and
// scale_tol finite and > 0, derived_cos in (0, 1]. Each bound is written so
// that NaN fails it.
func (t Tolerances) Validate() error {
	for _, x := range []float64{t.NoisyTau, t.FitTol, t.ScaleTol} {
		if !(x > 0) || math.IsInf(x, 1) {
			return fmt.Errorf("validate: tolerances must be finite and > 0 (noisy_tau %g, fit_tol %g, scale_tol %g)",
				t.NoisyTau, t.FitTol, t.ScaleTol)
		}
	}
	if !(t.DerivedCos > 0 && t.DerivedCos <= 1) {
		return fmt.Errorf("validate: derived_cos must be in (0, 1], got %g", t.DerivedCos)
	}
	return nil
}

// String renders the tolerances canonically for cache keys.
func (t Tolerances) String() string {
	return fmt.Sprintf("noisy=%g,fit=%g,scale=%g,cos=%g", t.NoisyTau, t.FitTol, t.ScaleTol, t.DerivedCos)
}

// Request selects what to validate. Its JSON form is the /v1/events/validate
// payload.
//
// lint:cachekey — every result-affecting field must reach Key().
type Request struct {
	// Platform is the catalog to validate: any registered platform, by its
	// short name ("spr", "h100") or its full "-sim" suffixed name.
	Platform string `json:"platform"`
	// Benchmarks optionally restricts the ground-truth benchmarks consulted;
	// empty means every suite benchmark of the platform.
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Workers bounds the collection worker pool (0 = GOMAXPROCS, 1 = serial).
	// Like everywhere else it cannot change results and is excluded from Key.
	Workers int `json:"workers,omitempty"`
	// Faults optionally injects deterministic collection faults (a fault.Spec
	// string). Benchmarks whose collection faults out degrade into the
	// report's Degraded list instead of failing the validation.
	Faults string `json:"faults,omitempty"`
	// Tolerances overrides the decision thresholds; nil uses the defaults.
	Tolerances *Tolerances `json:"tolerances,omitempty"`
}

// resolved is a validated request: canonical platform and its definition,
// registry-ordered benchmarks, effective tolerances.
type resolved struct {
	platform string
	def      *platdef.Platform
	benches  []suite.Benchmark
	tol      Tolerances
	workers  int
	faults   string
}

// resolve validates a request against a platform registry and fills
// defaults. The benchmark list comes back deduplicated in suite-registry
// order, so equal requests in any spelling share one canonical identity.
// Validation covers any registered platform: the ground-truth benchmarks of
// the platform's class drive it, exactly like the composability matrix.
func (r Request) resolve(reg *machine.Registry) (resolved, error) {
	p, err := reg.Platform(r.Platform)
	if err != nil {
		return resolved{}, err
	}
	def, platform := p.Platform, p.Name
	if r.Workers < 0 {
		return resolved{}, fmt.Errorf("validate: workers must be >= 0 (0 means GOMAXPROCS), got %d", r.Workers)
	}
	if r.Faults != "" {
		if _, err := fault.ParseSpec(r.Faults); err != nil {
			return resolved{}, fmt.Errorf("validate: bad faults spec: %v", err)
		}
	}
	tol := DefaultTolerances()
	if r.Tolerances != nil {
		tol = *r.Tolerances
	}
	if err := tol.Validate(); err != nil {
		return resolved{}, err
	}
	requested := make(map[string]bool, len(r.Benchmarks))
	for _, name := range r.Benchmarks {
		b, err := suite.ByName(name)
		if err != nil {
			return resolved{}, err
		}
		if b.Class != def.Class {
			return resolved{}, fmt.Errorf("validate: benchmark %q drives %s platforms, %s is %s", name, b.Class, platform, def.Class)
		}
		requested[name] = true
	}
	var benches []suite.Benchmark
	for _, b := range suite.All() {
		if b.Class != def.Class {
			continue
		}
		if len(requested) > 0 && !requested[b.Name] {
			continue
		}
		benches = append(benches, b)
	}
	if len(benches) == 0 {
		return resolved{}, fmt.Errorf("validate: no benchmarks selected for platform %s", platform)
	}
	return resolved{platform: platform, def: def, benches: benches, tol: tol, workers: r.Workers, faults: r.Faults}, nil
}

// Key is KeyIn over the built-in platforms. It exists only for cmd/loadgen
// until the next benchmark change; everything else calls KeyIn.
func (r Request) Key() (string, error) {
	reg, err := machine.NewRegistry()
	if err != nil {
		return "", err
	}
	return r.KeyIn(reg)
}

// KeyIn is the canonical cache/store/shard identity of a validation against
// a registry: equal keys mean byte-identical reports. It names the
// platform's Ref, the definition the report is computed from. Workers is
// excluded — it cannot change results — while Faults and non-default
// tolerances are included, mirroring cat.RunConfig.String.
func (r Request) KeyIn(reg *machine.Registry) (string, error) {
	res, err := r.resolve(reg)
	if err != nil {
		return "", err
	}
	ref, err := reg.Ref(res.platform)
	if err != nil {
		return "", err
	}
	names := make([]string, len(res.benches))
	for i, b := range res.benches {
		names[i] = b.Name
	}
	key := fmt.Sprintf("%s|%s|%s", ref, strings.Join(names, ","), res.tol)
	if res.faults != "" {
		spec, _ := fault.ParseSpec(res.faults) // resolve rejected specs that do not parse
		key += "|faults=" + spec.String()
	}
	return key, nil
}

// EventTrust is one event's verdict with its evidence.
type EventTrust struct {
	Event      string `json:"event"`
	Verdict    string `json:"verdict"`
	Documented bool   `json:"documented"`
	// Noise is the worst MaxRNMSE the event showed on any benchmark.
	Noise float64 `json:"noise"`
	// Scale is the least-squares proportionality factor between measured and
	// documented counts (1 for a perfectly valid event; 0 when undefined).
	Scale float64 `json:"scale"`
	// FitRNMSE is the relative residual of the scaled fit, ||m - s*d||/||m||.
	FitRNMSE float64 `json:"fit_rnmse"`
	// Cosine is the angle between measured and documented vectors.
	Cosine float64 `json:"cosine"`
	// MeanMeasured and MeanExpected summarize the two vectors for the report.
	MeanMeasured float64 `json:"mean_measured"`
	MeanExpected float64 `json:"mean_expected"`
}

// DegradedBenchmark records a benchmark whose collection faulted out under
// injection; the validation proceeded without it.
type DegradedBenchmark struct {
	Benchmark string `json:"benchmark"`
	Error     string `json:"error"`
}

// Report is the full trust report for one platform.
type Report struct {
	Platform string `json:"platform"`
	// Benchmarks lists the ground-truth benchmarks consulted (those that
	// degraded under fault injection appear in Degraded instead).
	Benchmarks []string `json:"benchmarks"`
	// Points is the total number of concatenated benchmark points behind
	// each event's vectors.
	Points     int            `json:"points"`
	Tolerances Tolerances     `json:"tolerances"`
	Counts     map[string]int `json:"counts"`
	Events     []EventTrust   `json:"events"`
	// Dropped lists events (catalog order) with no surviving measurements —
	// dropped by fault injection from every benchmark that ran. They carry
	// no verdict.
	Dropped []string `json:"dropped,omitempty"`
	// Degraded lists benchmarks lost wholesale to fault injection.
	Degraded []DegradedBenchmark `json:"degraded,omitempty"`
}

// Run is RunIn over the built-in platforms. It exists only for cmd/loadgen
// until the next benchmark change; everything else calls RunIn.
func Run(ctx context.Context, req Request) (*Report, error) {
	reg, err := machine.NewRegistry()
	if err != nil {
		return nil, err
	}
	return RunIn(ctx, reg, req)
}

// RunIn executes the validation on a registry's platform, collecting and
// profiling each selected benchmark's measurement set itself (RunWith with
// analysis.ID.Profile). The report is a pure function of the request's
// KeyIn — worker counts never change a byte.
func RunIn(ctx context.Context, reg *machine.Registry, req Request) (*Report, error) {
	return RunWith(ctx, reg, req, func(ctx context.Context, id analysis.ID) (*core.NoiseProfile, error) {
		return id.Profile(ctx)
	})
}

// RunWith executes the validation on a registry's platform. Each selected
// benchmark is the analysis of its default run on the platform, so its
// measurements are that analysis's noise profile, taken from profile: each
// event's worst max-RNMSE and its mean vector over the benchmark points.
// Any source of profiles serves — a fresh collection, or a cache keyed by
// analysis.ID.MeasurementKey — since equal keys mean equal profiles.
// The documented counts come from the benchmark driver's ground truth,
// computed once per benchmark and handed to profile in id's driver, and
// are reduced across threads like the measurements. Every catalog event
// is then classified.
func RunWith(ctx context.Context, reg *machine.Registry, req Request, profile func(context.Context, analysis.ID) (*core.NoiseProfile, error)) (*Report, error) {
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
	// Every benchmark's profile is read first, so that the evidence below
	// is laid out once, exactly sized.
	var runs []benchRun
	for _, b := range res.benches {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		run := b.DefaultRun
		run.Workers = res.workers
		run.Faults = res.faults
		id, err := analysis.Request{Benchmark: b.Name, Platform: res.platform, Run: &run}.Resolve(reg, res.workers)
		if err != nil {
			return nil, err
		}
		perThread, err := id.Bench.GroundTruth(id.Run)
		if err != nil {
			return nil, err
		}
		id.Bench.Driver = knownTruth{id.Bench.Driver, perThread}
		prof, err := profile(ctx, id)
		if err != nil {
			// Under fault injection a benchmark whose collection cannot
			// complete — a hard fault, or every event dropped — degrades
			// into the report instead of failing the whole validation.
			// Without injection there is nothing to degrade gracefully from,
			// and an ended context is no fault: a report degraded by it
			// would be cached as the request's answer.
			if res.faults != "" && ctx.Err() == nil {
				report.Degraded = append(report.Degraded, DegradedBenchmark{Benchmark: b.Name, Error: err.Error()})
				continue
			}
			return nil, err
		}
		report.Benchmarks = append(report.Benchmarks, b.Name)
		report.Points += len(prof.PointNames)
		runs = append(runs, benchRun{prof: prof, truth: perThread})
	}
	if len(report.Benchmarks) == 0 {
		return nil, fmt.Errorf("%w (%d lost)", ErrAllDegraded, len(report.Degraded))
	}
	events := res.def.Events
	ev, measured, expected := gather(events, runs)
	for k := range events {
		def, e := &events[k], &ev[k]
		if !e.seen {
			report.Dropped = append(report.Dropped, def.Name)
			continue
		}
		trust := classify(res.tol, def.Documented, e.noise, measured[e.lo:e.hi], expected[e.lo:e.hi])
		trust.Event = def.Name
		report.Counts[trust.Verdict]++
		report.Events = append(report.Events, trust)
	}
	return report, nil
}

// benchRun is one benchmark's evidence: its noise profile, and the ground
// truth its documented counts are computed from, per thread and point.
type benchRun struct {
	prof  *core.NoiseProfile
	truth [][]machine.Stats
}

// evidence locates one catalog event's accumulated evidence: its stretch
// [lo, hi) of the measured and expected blocks, the concatenation over the
// benchmarks that measured it, whether any did, and its worst max-RNMSE.
type evidence struct {
	lo, hi int
	seen   bool
	noise  float64
}

// gather lays out every catalog event's evidence across the benchmark
// runs, in catalog order: per event, its mean measured counts and its
// documented counts, concatenated over the runs that measured it, in one
// exactly sized block each. A documented count is reduced across threads
// per point, exactly as the measurements are (core.Median); an
// undocumented event's stay zero, which is what DocExpectation yields.
func gather(events []platdef.Event, runs []benchRun) (ev []evidence, measured, expected []float64) {
	at := make(map[string]int, len(events)) // catalog index by event name
	for k, e := range events {
		at[e.Name] = k
	}
	ev = make([]evidence, len(events))
	threads := 0
	for _, r := range runs {
		for _, name := range r.prof.Order {
			if k, ok := at[name]; ok {
				ev[k].hi += len(r.prof.PointNames)
				ev[k].seen = true
			}
		}
		threads = max(threads, len(r.truth))
	}
	total := 0
	for k := range ev {
		n := ev[k].hi
		ev[k].lo, ev[k].hi = total, total // hi is the fill cursor below
		total += n
	}
	measured, expected = make([]float64, total), make([]float64, total)
	scratch := make([]float64, threads)
	for _, r := range runs {
		n := len(r.prof.PointNames)
		vals := scratch[:len(r.truth)]
		for i, name := range r.prof.Order {
			k, ok := at[name]
			if !ok {
				continue
			}
			e := &ev[k]
			v, mean := r.prof.Reduction(i)
			if v > e.noise {
				e.noise = v
			}
			copy(measured[e.hi:e.hi+n], mean) // nil for an all-zero event, whose stretch stays zero
			if def := &events[k]; def.Documented {
				for pi := range n {
					for t, stats := range r.truth {
						vals[t], _ = def.DocExpectation(stats[pi])
					}
					expected[e.hi+pi] = core.Median(vals)
				}
			}
			e.hi += n
		}
	}
	return ev, measured, expected
}

// knownTruth is a driver whose ground truth is already computed: a
// validation that has to collect a set measures the very truth its
// documented counts read, so the kernels run once per benchmark.
type knownTruth struct {
	cat.Driver
	truth [][]machine.Stats
}

func (d knownTruth) GroundTruth(cat.RunConfig) ([][]machine.Stats, error) { return d.truth, nil }

// classify walks the trust decision tree for one event.
func classify(tol Tolerances, documented bool, noiseLevel float64, m, d []float64) EventTrust {
	t := EventTrust{
		Documented:   documented,
		Noise:        noiseLevel,
		Cosine:       mat.Cosine(m, d),
		MeanMeasured: mat.Mean(m),
		MeanExpected: mat.Mean(d),
	}
	if noiseLevel > tol.NoisyTau {
		t.Verdict = VerdictNoisy
		return t
	}
	if !documented {
		if mat.AllZero(m) {
			t.Verdict = VerdictBogus
		} else {
			t.Verdict = VerdictDerived
		}
		return t
	}
	dd := mat.Dot(d, d)
	if mat.IsZero(dd) {
		// Documented to count nothing these kernels exercise.
		if mat.AllZero(m) {
			t.Verdict = VerdictValid
		} else {
			t.Verdict = VerdictBogus
		}
		return t
	}
	if mat.AllZero(m) {
		// Documented to count, counting nothing.
		t.Verdict = VerdictBogus
		return t
	}
	t.Scale = mat.Dot(m, d) / dd
	t.FitRNMSE = fitResidual(m, d, t.Scale)
	if t.FitRNMSE <= tol.FitTol {
		if math.Abs(t.Scale-1) <= tol.ScaleTol {
			t.Verdict = VerdictValid
		} else {
			t.Verdict = VerdictScaled
		}
		return t
	}
	if t.Cosine >= tol.DerivedCos {
		t.Verdict = VerdictDerived
	} else {
		t.Verdict = VerdictBogus
	}
	return t
}

// fitResidual is the relative residual of the scaled documentation fit:
// ||m - s*d|| / ||m||.
func fitResidual(m, d []float64, s float64) float64 {
	var sum float64
	for i := range m {
		r := m[i] - s*d[i]
		sum += r * r
	}
	return math.Sqrt(sum) / math.Sqrt(mat.Dot(m, m))
}

// Format renders the report as the human-readable text the validate CLI
// prints — and that the daemon embeds in its JSON envelope, so both front
// ends emit byte-identical text.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "event-trust validation: %s (benchmarks %s; %d points)\n",
		r.Platform, strings.Join(r.Benchmarks, ", "), r.Points)
	fmt.Fprintf(&b, "tolerances: noisy-tau %.0e, fit %.0e, scale %.0e, derived-cos %.2f\n",
		r.Tolerances.NoisyTau, r.Tolerances.FitTol, r.Tolerances.ScaleTol, r.Tolerances.DerivedCos)
	b.WriteString("verdicts:")
	first := true
	for _, v := range VerdictOrder() {
		if n := r.Counts[v]; n > 0 {
			if !first {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, " %d %s", n, v)
			first = false
		}
	}
	b.WriteString("\n\n")
	width := 0
	for _, e := range r.Events {
		if len(e.Event) > width {
			width = len(e.Event)
		}
	}
	for _, e := range r.Events {
		fmt.Fprintf(&b, "  %-7s  %-*s", strings.ToUpper(e.Verdict), width, e.Event)
		switch e.Verdict {
		case VerdictNoisy:
			fmt.Fprintf(&b, "  noise %.2e", e.Noise)
		case VerdictValid, VerdictScaled:
			fmt.Fprintf(&b, "  scale %.4f  fit %.1e", e.Scale, e.FitRNMSE)
		case VerdictDerived:
			if e.Documented {
				fmt.Fprintf(&b, "  cos %.3f  fit %.1e", e.Cosine, e.FitRNMSE)
			} else {
				fmt.Fprintf(&b, "  undocumented  mean %.3g", e.MeanMeasured)
			}
		case VerdictBogus:
			fmt.Fprintf(&b, "  expected mean %.3g, measured mean %.3g", e.MeanExpected, e.MeanMeasured)
		}
		b.WriteString("\n")
	}
	if len(r.Degraded) > 0 {
		b.WriteString("\ndegraded benchmarks (fault injection):\n")
		for _, d := range r.Degraded {
			fmt.Fprintf(&b, "  %s: %s\n", d.Benchmark, d.Error)
		}
	}
	if len(r.Dropped) > 0 {
		b.WriteString("\ndropped events (no surviving measurements):\n")
		for _, name := range r.Dropped {
			fmt.Fprintf(&b, "  %s\n", name)
		}
	}
	return b.String()
}

// Envelope is the canonical JSON shape of a validation: the report fields
// plus the rendered text, so API consumers get both without a second
// request. Encode of the envelope is what the daemon stores and
// serves, and what `validate -json` prints — byte-identical by construction.
type Envelope struct {
	*Report
	// Text is the Format() rendering.
	Text string `json:"report"`
}

// NewEnvelope wraps a report with its rendered text.
func NewEnvelope(r *Report) Envelope { return Envelope{Report: r, Text: r.Format()} }

// Encode renders the envelope exactly as the daemon serves it: two-space
// indent, trailing newline. (encoding/json sorts map keys, so the Counts map
// marshals deterministically.) It fails when the report holds a value JSON
// cannot carry — NaN or ±Inf, which corrupt-fault injection writes into
// measured values — rather than return an empty body.
func (e Envelope) Encode() ([]byte, error) {
	body, err := canonjson.Encode(e)
	if err != nil {
		return nil, fmt.Errorf("validate: encode report: %w", err)
	}
	return body, nil
}

// CanonicalJSON is Encode without the error: nil when Encode fails. It
// exists only for cmd/loadgen until the next benchmark change; everything
// else calls Encode.
func (e Envelope) CanonicalJSON() []byte {
	body, _ := e.Encode()
	return body
}
