package core

import (
	"context"
	"fmt"
	"math"

	"github.com/perfmetrics/eventlens/internal/mat"
)

// Config holds the analysis thresholds. The defaults mirror the values the
// paper uses for the low-noise benchmarks; cache analyses override Tau and
// Alpha (Sections IV and V-E). Its JSON form is canonical — every field has
// a stable lowercase key and round-trips exactly — so it can serve as an API
// payload and as part of a result-cache key.
//
// lint:cachekey — every result-affecting field must reach String().
type Config struct {
	// Tau is the max-RNMSE noise threshold (Section IV). Events above it
	// are filtered out.
	Tau float64 `json:"tau"`
	// Alpha is the QRCP rounding/noise tolerance (Section V).
	Alpha float64 `json:"alpha"`
	// ProjectionTol is the maximum relative least-squares residual for an
	// event to count as representable in the expectation basis
	// (Section III-B).
	ProjectionTol float64 `json:"projection_tol"`
	// RoundTol is the coefficient-rounding tolerance for reported metric
	// definitions (Section VI-D).
	RoundTol float64 `json:"round_tol"`
	// Workers bounds the analysis worker pool: 0 (the default, omitted from
	// JSON) means GOMAXPROCS, 1 is the serial path. Any value produces
	// byte-identical results — parallelism only changes wall-clock time — so
	// Workers is deliberately excluded from String(), keeping cache keys
	// canonical across differently-parallel requests for the same analysis.
	// lint:cachekey-exempt worker count cannot change results; parallel and serial runs are byte-identical (TestPipelineParallelByteIdentical)
	Workers int `json:"workers,omitempty"`
}

// String renders the thresholds in a canonical compact form suitable for
// cache keys: %g is shortest-exact for float64, so equal configurations
// always render identically and distinct ones never collide. Workers is
// excluded: it cannot change results, so it must not split cache entries.
func (c Config) String() string {
	return fmt.Sprintf("tau=%g,alpha=%g,ptol=%g,rtol=%g",
		c.Tau, c.Alpha, c.ProjectionTol, c.RoundTol)
}

// Validate checks the thresholds: tau and round_tol must be finite and
// >= 0, alpha and projection_tol finite and > 0, and workers >= 0. Each
// bound is written so that NaN fails it. A round_tol of 0 (what an omitted
// field decodes to) rounds only coefficients that are already integers.
func (c Config) Validate() error {
	switch {
	case !(c.Tau >= 0) || math.IsInf(c.Tau, 1):
		return fmt.Errorf("config: tau must be finite and >= 0, got %g", c.Tau)
	case !(c.RoundTol >= 0) || math.IsInf(c.RoundTol, 1):
		return fmt.Errorf("config: round_tol must be finite and >= 0, got %g", c.RoundTol)
	case !(c.Alpha > 0) || math.IsInf(c.Alpha, 1):
		return fmt.Errorf("config: alpha must be finite and > 0, got %g", c.Alpha)
	case !(c.ProjectionTol > 0) || math.IsInf(c.ProjectionTol, 1):
		return fmt.Errorf("config: projection_tol must be finite and > 0, got %g", c.ProjectionTol)
	case c.Workers < 0:
		return fmt.Errorf("config: workers must be >= 0 (0 means GOMAXPROCS), got %d", c.Workers)
	}
	return nil
}

// DefaultConfig returns the paper's thresholds for low-noise (FLOPs,
// branching) benchmarks: tau = 1e-10, alpha = 5e-4.
func DefaultConfig() Config {
	return Config{Tau: 1e-10, Alpha: 5e-4, ProjectionTol: 1e-2, RoundTol: 0.05}
}

// CacheConfig returns the paper's thresholds for the noisy data-cache
// benchmark: tau = 1e-1, alpha = 5e-2.
func CacheConfig() Config {
	return Config{Tau: 1e-1, Alpha: 5e-2, ProjectionTol: 5e-2, RoundTol: 0.05}
}

// Pipeline runs the full analysis for one benchmark: noise filter ->
// basis projection -> specialized QRCP -> metric definition.
type Pipeline struct {
	Basis  *Basis
	Config Config
}

// Result is the outcome of the analysis stages prior to metric definition.
type Result struct {
	// Noise is the Section IV stage outcome.
	Noise *NoiseReport
	// Projection is the Section III-B stage outcome.
	Projection *ProjectionReport
	// QR is the Section V stage outcome.
	QR *SpecializedQRCPResult
	// SelectedEvents are the events whose representations form Xhat, in
	// selection order.
	SelectedEvents []string
	// Xhat is the basis-dim x rank matrix of selected representations.
	Xhat *mat.Dense
	// Unmeasured lists events dropped during collection (unrecoverable
	// injected faults); empty on clean runs. The analysis ran without them.
	Unmeasured []string
}

// Analyze runs the analysis of a measurement set: it validates the set,
// reduces it to its noise profile on the configured worker count and runs
// AnalyzeProfile over it.
func (p *Pipeline) Analyze(set *MeasurementSet) (*Result, error) {
	if err := set.Validate(); err != nil {
		return nil, err
	}
	return p.AnalyzeProfile(context.Background(), ProfileNoise(set, p.Config.Workers))
}

// AnalyzeProfile runs the analysis stages over a validated set's noise
// profile: the noise stage is the profile cut at the configured tau, then
// projection, the specialized QRCP and the selection. The context is
// checked between the stages, so a caller (a server handler, a job worker)
// can abandon an analysis whose deadline passed without waiting for the
// remaining ones. The result's noise report shares the profile's read-only
// vectors.
func (p *Pipeline) AnalyzeProfile(ctx context.Context, prof *NoiseProfile) (*Result, error) {
	if err := p.Basis.CheckFullRank(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	report := prof.Threshold(p.Config.Tau)
	proj, err := BuildXWorkers(p.Basis, report.Kept, report.KeptOrder, p.Config.ProjectionTol, p.Config.Workers)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(proj.Order) == 0 {
		return nil, fmt.Errorf("core: no events representable in the %s basis survived filtering", prof.Benchmark)
	}
	qr := SpecializedQRCP(proj.X, p.Config.Alpha)
	if qr.Rank == 0 {
		return nil, fmt.Errorf("core: specialized QRCP selected no events for %s", prof.Benchmark)
	}
	res := &Result{Noise: report, Projection: proj, QR: qr, Unmeasured: prof.Dropped}
	for _, idx := range qr.Selected() {
		res.SelectedEvents = append(res.SelectedEvents, proj.Order[idx])
	}
	res.Xhat = proj.X.ColSlice(qr.Selected())
	return res, nil
}

// DefineMetric solves for one signature against the selected events.
func (r *Result) DefineMetric(sig Signature) (*MetricDefinition, error) {
	return DefineMetric(r.Xhat, r.SelectedEvents, sig)
}

// DefineMetrics solves every signature, returning definitions in order.
func (r *Result) DefineMetrics(sigs []Signature) ([]*MetricDefinition, error) {
	out := make([]*MetricDefinition, 0, len(sigs))
	for _, s := range sigs {
		def, err := r.DefineMetric(s)
		if err != nil {
			return nil, err
		}
		out = append(out, def)
	}
	return out, nil
}
