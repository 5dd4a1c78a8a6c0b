package analysis

import (
	"github.com/perfmetrics/eventlens/internal/cat"
	"github.com/perfmetrics/eventlens/internal/core"
)

// Analysis is the product of the analysis stages for one ID: the noise
// profile it read, the pipeline result and the benchmark's metric
// definitions. It is never mutated, so a server can hold one per analysis
// key and render the analyze, define, explain and presets responses from
// it.
type Analysis struct {
	ID      ID
	Profile *core.NoiseProfile
	Result  *core.Result
	Defs    []*core.MetricDefinition
}

// metricJSON is a metric definition with its verdict at
// core.ComposableThreshold.
type metricJSON struct {
	*core.MetricDefinition
	Composable bool `json:"composable"`
}

func toMetricJSON(d *core.MetricDefinition) metricJSON {
	return metricJSON{MetricDefinition: d, Composable: d.Composable(core.ComposableThreshold)}
}

type noiseJSON struct {
	Measured  int     `json:"measured"`
	Discarded int     `json:"discarded"`
	Filtered  int     `json:"filtered"`
	Kept      int     `json:"kept"`
	Tau       float64 `json:"tau"`
}

type projectionJSON struct {
	Representable int      `json:"representable"`
	Dropped       []string `json:"dropped"`
}

// Response is the /v1/analyze body.
type Response struct {
	Benchmark      string         `json:"benchmark"`
	Platform       string         `json:"platform"`
	Run            cat.RunConfig  `json:"run"`
	Config         core.Config    `json:"config"`
	Noise          noiseJSON      `json:"noise"`
	Projection     projectionJSON `json:"projection"`
	SelectedEvents []string       `json:"selected_events"`
	Metrics        []metricJSON   `json:"metrics"`
	// Faults lists events dropped during collection under fault injection
	// (partial-results mode); absent on clean runs.
	Faults []string `json:"faults,omitempty"`
	// Report is the batch-tool text report (Analysis.Report).
	Report string `json:"report"`
}

// Report is the text report `analyze` prints.
func (a *Analysis) Report() string {
	return core.FormatAnalysisReport(a.Result, a.ID.Config.ProjectionTol, a.ID.Bench.MetricTable, a.Defs)
}

// Presets is the PAPI-style preset file of the analysis's composable
// metrics: the /v1/presets/{benchmark} body and `analyze -presets`.
func (a *Analysis) Presets() string {
	return core.PresetFile(a.Profile.Platform, a.ID.Bench.Name, a.Defs, a.ID.Config.RoundTol)
}

// Render is the /v1/analyze response of the request's analysis.
func (r Request) Render(a *Analysis) (any, error) {
	res := a.Result
	resp := &Response{
		Benchmark: a.ID.Bench.Name,
		Platform:  a.Profile.Platform,
		Run:       a.ID.Run,
		Config:    a.ID.Config,
		Noise: noiseJSON{
			Measured:  len(res.Noise.Variabilities) + len(res.Noise.Discarded),
			Discarded: len(res.Noise.Discarded),
			Filtered:  len(res.Noise.Filtered),
			Kept:      len(res.Noise.KeptOrder),
			Tau:       res.Noise.Tau,
		},
		Projection: projectionJSON{
			Representable: len(res.Projection.Order),
			Dropped:       append([]string{}, res.Projection.Dropped...),
		},
		SelectedEvents: append([]string{}, res.SelectedEvents...),
		Report:         a.Report(),
	}
	if len(res.Unmeasured) > 0 {
		resp.Faults = res.Unmeasured
	}
	for _, d := range a.Defs {
		resp.Metrics = append(resp.Metrics, toMetricJSON(d))
	}
	return resp, nil
}

// DefineResponse is the /v1/metrics/define body.
type DefineResponse struct {
	Benchmark string       `json:"benchmark"`
	Platform  string       `json:"platform"`
	Metric    metricJSON   `json:"metric"`
	Rounded   metricJSON   `json:"rounded"`
	Preset    *core.Preset `json:"preset,omitempty"`
	Text      string       `json:"text"`
}

// Render solves the signature of a request Key accepted against its
// analysis: the /v1/metrics/define response.
func (r DefineRequest) Render(a *Analysis) (any, error) {
	sig, err := r.signature(a.ID.Bench)
	if err != nil {
		return nil, err
	}
	def, err := a.Result.DefineMetric(sig)
	if err != nil {
		return nil, invalid(err.Error())
	}
	resp := &DefineResponse{
		Benchmark: a.ID.Bench.Name,
		Platform:  a.Profile.Platform,
		Metric:    toMetricJSON(def),
		Rounded:   toMetricJSON(def.Rounded(a.ID.Config.RoundTol)),
		Text:      def.String(),
	}
	if p, err := def.ToPreset(a.ID.Config.RoundTol); err == nil && def.Composable(core.ComposableThreshold) {
		resp.Preset = p
	}
	return resp, nil
}

// explanationJSON is an explanation with its rendered text.
type explanationJSON struct {
	*core.Explanation
	Text string `json:"text"`
}

// ExplainResponse is the /v1/events/explain body.
type ExplainResponse struct {
	Benchmark    string            `json:"benchmark"`
	Basis        []string          `json:"basis"`
	Explanations []explanationJSON `json:"explanations"`
}

// Explain decodes one kept raw event, or every kept event for "all", into
// the basis vocabulary of the analysis's points.
func (a *Analysis) Explain(event string) (*ExplainResponse, error) {
	basis, err := a.ID.Bench.BasisForPoints(a.Profile.PointNames)
	if err != nil {
		return nil, err
	}
	noise := a.Result.Noise
	names := noise.KeptOrder
	if event != "all" {
		if _, ok := noise.Kept[event]; !ok {
			return nil, notKept(event)
		}
		names = []string{event}
	}
	explanations, err := core.ExplainKept(basis, noise, a.ID.Config.Alpha, a.ID.Config.ProjectionTol)
	if err != nil {
		return nil, err
	}
	resp := &ExplainResponse{Benchmark: a.ID.Bench.Name, Basis: basis.Names}
	for _, name := range names {
		e := explanations[name]
		resp.Explanations = append(resp.Explanations, explanationJSON{Explanation: e, Text: e.String()})
	}
	return resp, nil
}
