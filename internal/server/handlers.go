package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"github.com/perfmetrics/eventlens/internal/cat"
	"github.com/perfmetrics/eventlens/internal/core"
	"github.com/perfmetrics/eventlens/internal/fault"
	"github.com/perfmetrics/eventlens/internal/machine"
	"github.com/perfmetrics/eventlens/internal/matrix"
	"github.com/perfmetrics/eventlens/internal/suite"
	"github.com/perfmetrics/eventlens/internal/validate"
)

// httpError carries an HTTP status through handler plumbing.
type httpError struct {
	code int
	msg  string
}

func (e httpError) Error() string { return e.msg }

// overloadError is an admission-control rejection: the request was refused
// because the daemon is at its synchronous-compute or job-queue bound. It
// maps to 429 Too Many Requests with a Retry-After hint so well-behaved
// clients back off instead of piling on.
type overloadError struct {
	msg string
}

func (e overloadError) Error() string { return e.msg }

// retryAfterHint is the Retry-After value (seconds) on 429 responses.
const retryAfterHint = "1"

// errStatus maps an error to an HTTP status code.
func errStatus(err error) int {
	var he httpError
	if errors.As(err, &he) {
		return he.code
	}
	var oe overloadError
	if errors.As(err, &oe) {
		return http.StatusTooManyRequests
	}
	if canceled(err) {
		return http.StatusServiceUnavailable
	}
	// Injected-fault failures (including a validation losing every benchmark)
	// are the daemon degrading itself, not a client or server bug: 503 so
	// clients retry, matching the chaos contract of never answering 500 to a
	// well-formed request under injection.
	if errors.Is(err, validate.ErrAllDegraded) || errors.Is(err, matrix.ErrAllDegraded) {
		return http.StatusServiceUnavailable
	}
	if _, ok := fault.As(err); ok {
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// errorEnvelope is the JSON error shape every failure returns.
type errorEnvelope struct {
	Error struct {
		Code    int    `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func writeError(w http.ResponseWriter, code int, msg string) {
	var env errorEnvelope
	env.Error.Code = code
	env.Error.Message = msg
	writeJSON(w, code, env)
}

func writeErr(w http.ResponseWriter, err error) {
	var oe overloadError
	if errors.As(err, &oe) {
		w.Header().Set("Retry-After", retryAfterHint)
	}
	writeError(w, errStatus(err), err.Error())
}

// canonicalJSON renders v exactly as writeJSON serves it: two-space indent,
// trailing newline. The persistent result store holds these bytes verbatim,
// which is what makes disk-served responses byte-identical to computed ones.
func canonicalJSON(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
	return buf.Bytes()
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	writeBody(w, code, canonicalJSON(v))
}

// writeBody serves pre-rendered canonical JSON bytes.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

// decodeJSON strictly decodes a single JSON object from the request body.
// Unknown fields, trailing garbage and oversized bodies are client errors.
func decodeJSON(r *http.Request, dst any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			return httpError{http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", maxErr.Limit)}
		}
		return httpError{http.StatusBadRequest, "malformed JSON: " + err.Error()}
	}
	if dec.More() {
		return httpError{http.StatusBadRequest, "request body must hold a single JSON object"}
	}
	return nil
}

// ---- Analysis DTOs ----------------------------------------------------

// analyzeRequest selects a benchmark and optionally overrides its default
// collection and analysis configuration.
type analyzeRequest struct {
	Benchmark string         `json:"benchmark"`
	Run       *cat.RunConfig `json:"run,omitempty"`
	Config    *core.Config   `json:"config,omitempty"`
}

type termJSON struct {
	Event string  `json:"event"`
	Coeff float64 `json:"coeff"`
}

type metricJSON struct {
	Metric        string     `json:"metric"`
	Terms         []termJSON `json:"terms"`
	BackwardError float64    `json:"backward_error"`
	Residual      float64    `json:"residual"`
	Composable    bool       `json:"composable"`
}

func toMetricJSON(d *core.MetricDefinition) metricJSON {
	m := metricJSON{
		Metric:        d.Metric,
		BackwardError: d.BackwardError,
		Residual:      d.Residual,
		Composable:    d.Composable(core.ComposableThreshold),
	}
	for _, t := range d.Terms {
		m.Terms = append(m.Terms, termJSON{Event: t.Event, Coeff: t.Coeff})
	}
	return m
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

type analyzeResponse struct {
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
	// Report is the batch-tool text report; byte-identical to what
	// `analyze -bench <name>` prints for the same configuration.
	Report string `json:"report"`
}

// analysis is the product of the analysis stages for one analysis key: the
// shared measurement set, the pipeline result and the benchmark's metric
// definitions. It is built once per analysis key, held in the analysis
// cache and never mutated; the analyze, define, explain and presets
// endpoints each render their canonical bytes from it.
type analysis struct {
	bench suite.Benchmark
	run   cat.RunConfig
	cfg   core.Config
	set   *core.MeasurementSet
	res   *core.Result
	defs  []*core.MetricDefinition
}

func (a *analysis) response() *analyzeResponse {
	resp := &analyzeResponse{
		Benchmark: a.bench.Name,
		Platform:  a.set.Platform,
		Run:       a.run,
		Config:    a.cfg,
		Noise: noiseJSON{
			Measured:  len(a.res.Noise.Variabilities) + len(a.res.Noise.Discarded),
			Discarded: len(a.res.Noise.Discarded),
			Filtered:  len(a.res.Noise.Filtered),
			Kept:      len(a.res.Noise.KeptOrder),
			Tau:       a.res.Noise.Tau,
		},
		Projection: projectionJSON{
			Representable: len(a.res.Projection.Order),
			Dropped:       append([]string{}, a.res.Projection.Dropped...),
		},
		SelectedEvents: append([]string{}, a.res.SelectedEvents...),
		Report:         core.FormatAnalysisReport(a.res, a.cfg.ProjectionTol, a.bench.MetricTable, a.defs),
	}
	if len(a.res.Unmeasured) > 0 {
		resp.Faults = append([]string{}, a.res.Unmeasured...)
	}
	for _, d := range a.defs {
		resp.Metrics = append(resp.Metrics, toMetricJSON(d))
	}
	return resp
}

// resolve validates an analyzeRequest against the benchmark registry and
// fills defaults.
func (s *Server) resolve(req analyzeRequest) (suite.Benchmark, cat.RunConfig, core.Config, error) {
	if req.Benchmark == "" {
		return suite.Benchmark{}, cat.RunConfig{}, core.Config{},
			httpError{http.StatusBadRequest, "missing required field \"benchmark\""}
	}
	bench, err := suite.ByName(req.Benchmark)
	if err != nil {
		return suite.Benchmark{}, cat.RunConfig{}, core.Config{},
			httpError{http.StatusNotFound, err.Error()}
	}
	run := bench.DefaultRun
	if req.Run != nil {
		run = *req.Run
	}
	if run.Workers == 0 {
		run.Workers = s.cfg.PipelineWorkers
	}
	if err := run.Validate(); err != nil {
		return suite.Benchmark{}, cat.RunConfig{}, core.Config{},
			httpError{http.StatusBadRequest, err.Error()}
	}
	cfg := bench.Config
	if req.Config != nil {
		cfg = *req.Config
	}
	if cfg.Workers == 0 {
		cfg.Workers = s.cfg.PipelineWorkers
	}
	if cfg.Tau < 0 || cfg.Alpha <= 0 || cfg.ProjectionTol <= 0 {
		return suite.Benchmark{}, cat.RunConfig{}, core.Config{},
			httpError{http.StatusBadRequest, "config: tau must be >= 0, alpha and projection_tol must be > 0"}
	}
	if cfg.Workers < 0 {
		return suite.Benchmark{}, cat.RunConfig{}, core.Config{},
			httpError{http.StatusBadRequest, "config: workers must be >= 0 (0 means GOMAXPROCS)"}
	}
	return bench, run, cfg, nil
}

// analysisKey is the canonical cache/store/shard key of one analysis: the
// canonical rendering of (benchmark, RunConfig, Config). The pipeline is
// deterministic, so equal keys mean equal results — everywhere: in memory,
// on disk, and on whichever replica the key hashes to.
func analysisKey(bench suite.Benchmark, run cat.RunConfig, cfg core.Config) string {
	return fmt.Sprintf("%s|%s|%s", bench.Name, run, cfg)
}

// Cache sources reported in the X-Eventlens-Cache header.
const (
	srcHit  = "hit"  // served from the in-memory cache (or joined a flight)
	srcDisk = "disk" // warmed from the persistent store, zero recomputation
	srcMiss = "miss" // computed now
)

// endpoint is what the serving ladder needs to know about one request: its
// canonical cache/store/shard key, and how to compute its canonical response
// bytes (counting the endpoint's own runs).
type endpoint struct {
	key     string
	compute func(ctx context.Context) ([]byte, error)
}

// serve is the serving ladder behind every cached endpoint and the async
// job path: the in-memory cache (with singleflight), then the persistent
// store, then admission control, then computation — publishing fresh
// results back to the store. The ladder holds nothing but canonical
// response bytes, so a verified store entry is served as-is. gated requests
// pass admission control before computing; job workers are bounded already
// and pass gated=false. Every producer is deterministic, so equal keys mean
// equal bytes everywhere: in memory, on disk, and on whichever replica the
// key hashes to. The returned source names the rung that served the result.
func (s *Server) serve(ctx context.Context, ep endpoint, gated bool) ([]byte, string, error) {
	src := srcHit // stays "hit" when the cache or a joined flight serves it
	body, err := s.cache.do(ctx, ep.key, func() ([]byte, error) {
		if body, ok := s.storeGet(ep.key); ok {
			src = srcDisk
			return body, nil
		}
		src = srcMiss
		if gated {
			release, err := s.admitSync()
			if err != nil {
				return nil, err
			}
			defer release()
		}
		start := time.Now()
		body, err := ep.compute(ctx)
		if err != nil {
			return nil, err
		}
		s.pipelineSeconds.Observe(time.Since(start).Seconds())
		s.storePut(ep.key, body)
		return body, nil
	})
	return body, src, err
}

// handleLadder serves one cached POST endpoint: decode the request, route it
// to the key's owner in a sharded tier, or else run the serving ladder and
// report the rung that served it. Requests already forwarded by a peer
// (marker header) are always served locally, so forwarding cannot loop.
func handleLadder[R any](s *Server, describe func(R) (endpoint, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req R
		if err := decodeJSON(r, &req); err != nil {
			writeErr(w, err)
			return
		}
		ep, err := describe(req)
		if err != nil {
			writeErr(w, err)
			return
		}
		if s.ring != nil && r.Header.Get(peerHeader) == "" && s.forwardToOwner(w, r, ep.key, req) {
			return
		}
		body, src, err := s.serve(r.Context(), ep, true)
		if err != nil {
			writeErr(w, err)
			return
		}
		w.Header().Set("X-Eventlens-Cache", src)
		writeBody(w, http.StatusOK, body)
	}
}

// analyzeEndpoint describes /v1/analyze, which async jobs share.
func (s *Server) analyzeEndpoint(req analyzeRequest) (endpoint, error) {
	bench, run, cfg, err := s.resolve(req)
	if err != nil {
		return endpoint{}, err
	}
	return endpoint{
		key: analysisKey(bench, run, cfg),
		compute: func(ctx context.Context) ([]byte, error) {
			a, err := s.analyze(ctx, bench, run, cfg)
			if err != nil {
				return nil, err
			}
			return canonicalJSON(a.response()), nil
		},
	}, nil
}

// analyze returns the analysis of one analysis key through the analysis
// cache (with singleflight): on a miss, collection via the batching
// measurement-set cache, then the analysis stages over the shared
// (immutable) set. Every endpoint rendered from an analysis computes
// through here, so the define, explain and presets requests on a key
// analyze served reuse its analysis.
func (s *Server) analyze(ctx context.Context, bench suite.Benchmark, run cat.RunConfig, cfg core.Config) (*analysis, error) {
	return s.analyses.do(ctx, analysisKey(bench, run, cfg), func() (*analysis, error) {
		set, err := s.measurementSet(ctx, bench, run)
		if err != nil {
			return nil, err
		}
		res, err := bench.AnalyzeSet(ctx, set, cfg)
		if err != nil {
			return nil, err
		}
		defs, err := res.DefineMetrics(bench.Signatures)
		if err != nil {
			return nil, err
		}
		s.pipelineRuns.Inc()
		return &analysis{bench: bench, run: run, cfg: cfg, set: set, res: res, defs: defs}, nil
	})
}

// measurementSet resolves (benchmark, run) to its shared measurement set
// through the batching set cache, keyed by cat.RunConfig.MeasurementKey.
// Collection depends only on (benchmark, RunConfig) — analysis thresholds
// never touch it — and every analysis stage treats the set as immutable, so
// K analysis configurations sharing a measurement key trigger exactly one
// collection pass whether they arrive concurrently (they join the flight)
// or sequentially (they hit the cache). Collections running under minimal
// spanning kernel selection count themselves and the points the selection
// pruned (full basis rows minus collected points) — the cost it saved.
func (s *Server) measurementSet(ctx context.Context, bench suite.Benchmark, run cat.RunConfig) (*core.MeasurementSet, error) {
	return s.sets.do(ctx, run.MeasurementKey(bench.Name), func() (*core.MeasurementSet, error) {
		set, err := bench.Collect(ctx, run)
		if err != nil {
			return nil, err
		}
		if run.MinimalKernels {
			s.minimalRuns.Inc()
			if basis, err := bench.Basis(); err == nil && basis.Points() > len(set.PointNames) {
				s.minimalPruned.Add(uint64(basis.Points() - len(set.PointNames)))
			}
		}
		return set, nil
	})
}

// admitSync is admission control for synchronous computations: a
// non-blocking semaphore acquire. At the bound the request is rejected
// immediately with an overloadError (429) rather than queued — overload
// degrades to fast rejections the client can back off from.
func (s *Server) admitSync() (func(), error) {
	select {
	case s.syncSem <- struct{}{}:
		return func() { <-s.syncSem }, nil
	default:
		s.admissionRejch.With("sync").Inc()
		return nil, overloadError{fmt.Sprintf(
			"server overloaded: %d synchronous analyses already in flight", cap(s.syncSem))}
	}
}

// ---- Handlers ---------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

// ---- Event-trust validation -------------------------------------------

// validateKey is the canonical cache/store/shard key of one event-trust
// validation: the request's own canonical key under the endpoint's prefix,
// so validations and analyses never collide in the cache, the persistent
// store, or the shard ring.
func validateKey(req validate.Request) (string, error) {
	k, err := req.Key()
	if err != nil {
		return "", httpError{http.StatusBadRequest, err.Error()}
	}
	return "validate|" + k, nil
}

// validateEndpoint describes /v1/events/validate: the canonical event-trust
// envelope for a platform, byte-identical to `validate -platform <p> -json`.
// Requests carrying a fault spec degrade exactly like the CLI — lost
// benchmarks and dropped events are listed in the report, and only a
// validation losing every benchmark fails (as 503, never 500).
func (s *Server) validateEndpoint(req validate.Request) (endpoint, error) {
	key, err := validateKey(req)
	if err != nil {
		return endpoint{}, err
	}
	return endpoint{
		key: key,
		compute: func(ctx context.Context) ([]byte, error) {
			if req.Workers == 0 {
				req.Workers = s.cfg.PipelineWorkers
			}
			report, err := validate.Run(ctx, req)
			if err != nil {
				return nil, err
			}
			s.validateRuns.Inc()
			for _, verdict := range validate.VerdictOrder() {
				if n := report.Counts[verdict]; n > 0 {
					s.validateVerdicts.With(verdict).Add(uint64(n))
				}
			}
			return validate.NewEnvelope(report).CanonicalJSON(), nil
		},
	}, nil
}

// ---- Composability matrix ---------------------------------------------

// matrixKey is the canonical cache/store/shard key of one composability
// matrix: the request's own canonical key (platform and benchmark aliases
// resolved, worker counts excluded) under the endpoint's prefix.
func (s *Server) matrixKey(req matrix.Request) (string, error) {
	k, err := req.Key(s.platforms)
	if err != nil {
		return "", httpError{http.StatusBadRequest, err.Error()}
	}
	return "matrix|" + k, nil
}

// matrixEndpoint describes /v1/matrix: the cross-architecture
// composability matrix over the registered platforms, byte-identical to
// `figures -fig matrix -json` for the same request. Requests carrying a
// fault spec degrade like the CLI — pairs losing their collection are
// listed in the report — and only a matrix losing every pair fails (as 503,
// never 500).
func (s *Server) matrixEndpoint(req matrix.Request) (endpoint, error) {
	key, err := s.matrixKey(req)
	if err != nil {
		return endpoint{}, err
	}
	return endpoint{
		key: key,
		compute: func(ctx context.Context) ([]byte, error) {
			if req.Workers == 0 {
				req.Workers = s.cfg.PipelineWorkers
			}
			report, err := matrix.Run(ctx, s.platforms, req)
			if err != nil {
				return nil, err
			}
			s.matrixRuns.Inc()
			s.matrixCells.Add(uint64(report.Total))
			return matrix.NewEnvelope(report).CanonicalJSON(), nil
		},
	}, nil
}

// defineRequest solves one signature — either a named one from the
// benchmark's table or a custom coefficient vector — against an analysis.
type defineRequest struct {
	Benchmark string         `json:"benchmark"`
	Run       *cat.RunConfig `json:"run,omitempty"`
	Config    *core.Config   `json:"config,omitempty"`
	Metric    string         `json:"metric,omitempty"`
	Signature *signatureJSON `json:"signature,omitempty"`
}

type signatureJSON struct {
	Name   string    `json:"name"`
	Coeffs []float64 `json:"coeffs"`
}

type presetJSON struct {
	Name          string   `json:"name"`
	Events        []string `json:"events"`
	Postfix       string   `json:"postfix"`
	BackwardError float64  `json:"backward_error"`
}

type defineResponse struct {
	Benchmark string      `json:"benchmark"`
	Platform  string      `json:"platform"`
	Metric    metricJSON  `json:"metric"`
	Rounded   metricJSON  `json:"rounded"`
	Preset    *presetJSON `json:"preset,omitempty"`
	Text      string      `json:"text"`
}

// defineEndpoint describes /v1/metrics/define: one signature solved against
// the analysis of the request's (benchmark, run, config). Named metrics
// resolve to their table signature here, so the key — the analysis key and
// the signature's JSON under the endpoint's prefix — is the same for a named
// request and the custom signature it names. A custom signature of the
// wrong dimension is rejected here, before any analysis.
func (s *Server) defineEndpoint(req defineRequest) (endpoint, error) {
	if (req.Metric == "") == (req.Signature == nil) {
		return endpoint{}, httpError{http.StatusBadRequest,
			"exactly one of \"metric\" (a name from the benchmark's table) or \"signature\" must be set"}
	}
	bench, run, cfg, err := s.resolve(analyzeRequest{Benchmark: req.Benchmark, Run: req.Run, Config: req.Config})
	if err != nil {
		return endpoint{}, err
	}
	var sig core.Signature
	if req.Signature != nil {
		if req.Signature.Name == "" {
			return endpoint{}, httpError{http.StatusBadRequest, "signature.name must be set"}
		}
		sig = core.Signature{Name: req.Signature.Name, Coeffs: req.Signature.Coeffs}
		if err := sig.CheckDim(len(bench.BasisSymbols)); err != nil {
			return endpoint{}, httpError{http.StatusBadRequest, err.Error()}
		}
	} else {
		found := false
		for _, candidate := range bench.Signatures {
			if candidate.Name == req.Metric {
				sig, found = candidate, true
				break
			}
		}
		if !found {
			return endpoint{}, httpError{http.StatusNotFound,
				fmt.Sprintf("benchmark %q has no metric %q (have %s)", bench.Name, req.Metric, signatureNames(bench))}
		}
	}
	sigJSON, err := json.Marshal(signatureJSON{Name: sig.Name, Coeffs: sig.Coeffs})
	if err != nil {
		return endpoint{}, httpError{http.StatusBadRequest, "signature: " + err.Error()}
	}
	return endpoint{
		key: "define|" + analysisKey(bench, run, cfg) + "|" + string(sigJSON),
		compute: func(ctx context.Context) ([]byte, error) {
			a, err := s.analyze(ctx, bench, run, cfg)
			if err != nil {
				return nil, err
			}
			def, err := a.res.DefineMetric(sig)
			if err != nil {
				return nil, httpError{http.StatusBadRequest, err.Error()}
			}
			resp := defineResponse{
				Benchmark: bench.Name,
				Platform:  a.set.Platform,
				Metric:    toMetricJSON(def),
				Rounded:   toMetricJSON(def.Rounded(cfg.RoundTol)),
				Text:      def.String(),
			}
			if p, err := def.ToPreset(cfg.RoundTol); err == nil && def.Composable(core.ComposableThreshold) {
				resp.Preset = &presetJSON{
					Name:          p.Name,
					Events:        p.Events,
					Postfix:       p.Postfix,
					BackwardError: p.BackwardError,
				}
			}
			return canonicalJSON(resp), nil
		},
	}, nil
}

func signatureNames(b suite.Benchmark) string {
	names := ""
	for i, sig := range b.Signatures {
		if i > 0 {
			names += ", "
		}
		names += fmt.Sprintf("%q", sig.Name)
	}
	return names
}

// explainRequest decodes raw events into basis vocabulary.
type explainRequest struct {
	Benchmark string         `json:"benchmark"`
	Run       *cat.RunConfig `json:"run,omitempty"`
	Config    *core.Config   `json:"config,omitempty"`
	// Event is a kept raw-event name, or "all" (the default) for every
	// kept event.
	Event string `json:"event,omitempty"`
}

type explanationJSON struct {
	Event       string     `json:"event"`
	Terms       []termJSON `json:"terms"`
	RelResidual float64    `json:"rel_residual"`
	Verdict     string     `json:"verdict"`
	Text        string     `json:"text"`
}

type explainResponse struct {
	Benchmark    string            `json:"benchmark"`
	Basis        []string          `json:"basis"`
	Explanations []explanationJSON `json:"explanations"`
}

// benchCatalogs maps each benchmark to its platform's raw-event catalog,
// built on first use: an event outside it can never be kept.
var benchCatalogs = sync.OnceValues(func() (map[string]*machine.Catalog, error) {
	out := map[string]*machine.Catalog{}
	for _, b := range suite.All() {
		p, err := b.NewPlatform()
		if err != nil {
			return nil, err
		}
		out[b.Name] = p.Catalog
	}
	return out, nil
})

// notKept is the 404 of an explain request naming an event the analysis
// did not keep.
func notKept(event string) error {
	return httpError{http.StatusNotFound,
		fmt.Sprintf("event %q not among the kept events (noisy, all-zero, or unknown)", event)}
}

// explainEndpoint describes /v1/events/explain: the kept raw events of the
// request's analysis decoded into basis vocabulary, keyed by the analysis
// key and the event under the endpoint's prefix ("" and "all" are one key).
// An event outside the benchmark's platform catalog is rejected here, before
// any analysis.
func (s *Server) explainEndpoint(req explainRequest) (endpoint, error) {
	bench, run, cfg, err := s.resolve(analyzeRequest{Benchmark: req.Benchmark, Run: req.Run, Config: req.Config})
	if err != nil {
		return endpoint{}, err
	}
	event := req.Event
	if event == "" {
		event = "all"
	}
	if event != "all" {
		catalogs, err := benchCatalogs()
		if err != nil {
			return endpoint{}, err
		}
		if _, ok := catalogs[bench.Name].Lookup(event); !ok {
			return endpoint{}, notKept(event)
		}
	}
	return endpoint{
		key: "explain|" + analysisKey(bench, run, cfg) + "|" + event,
		compute: func(ctx context.Context) ([]byte, error) {
			a, err := s.analyze(ctx, bench, run, cfg)
			if err != nil {
				return nil, err
			}
			basis, err := bench.BasisFor(a.set)
			if err != nil {
				return nil, err
			}
			names := a.res.Noise.KeptOrder
			if event != "all" {
				if _, ok := a.res.Noise.Kept[event]; !ok {
					return nil, notKept(event)
				}
				names = []string{event}
			}
			explanations, err := core.ExplainKept(basis, a.res.Noise, cfg.Alpha, cfg.ProjectionTol)
			if err != nil {
				return nil, err
			}
			resp := explainResponse{Benchmark: bench.Name, Basis: basis.Names}
			for _, name := range names {
				e := explanations[name]
				ej := explanationJSON{
					Event:       e.Event,
					RelResidual: e.RelResidual,
					Verdict:     e.Verdict,
					Text:        e.String(),
				}
				for _, t := range e.Terms {
					ej.Terms = append(ej.Terms, termJSON{Event: t.Event, Coeff: t.Coeff})
				}
				resp.Explanations = append(resp.Explanations, ej)
			}
			return canonicalJSON(resp), nil
		},
	}, nil
}

// handlePresets serves the PAPI-style preset text of a benchmark's default
// analysis through the serving ladder, keyed by the analysis key under the
// endpoint's prefix. It is a GET with the benchmark in the path, so it is
// served where it lands rather than forwarded to the key's owner.
func (s *Server) handlePresets(w http.ResponseWriter, r *http.Request) {
	bench, run, cfg, err := s.resolve(analyzeRequest{Benchmark: r.PathValue("benchmark")})
	if err != nil {
		writeErr(w, err)
		return
	}
	body, src, err := s.serve(r.Context(), endpoint{
		key: "presets|" + analysisKey(bench, run, cfg),
		compute: func(ctx context.Context) ([]byte, error) {
			a, err := s.analyze(ctx, bench, run, cfg)
			if err != nil {
				return nil, err
			}
			header := fmt.Sprintf("# auto-generated presets for %s (%s benchmark)\n", a.set.Platform, bench.Name)
			return []byte(header + core.FormatPresets(a.defs, cfg.RoundTol, core.ComposableThreshold)), nil
		},
	}, true)
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Eventlens-Cache", src)
	_, _ = w.Write(body)
}

type platformJSON struct {
	Name        string `json:"name"`
	Class       string `json:"class"`
	Events      int    `json:"events"`
	Counters    int    `json:"counters"`
	Constrained bool   `json:"constrained"`
}

// handlePlatforms lists every platform in the daemon's registry — the
// built-ins plus anything loaded from Config.PlatformDir — straight from
// the definitions, without instantiating live platforms.
func (s *Server) handlePlatforms(w http.ResponseWriter, r *http.Request) {
	var out []platformJSON
	for _, name := range s.platforms.Names() {
		def, err := s.platforms.Def(name)
		if err != nil {
			writeErr(w, err)
			return
		}
		out = append(out, platformJSON{
			Name:        def.Name,
			Class:       def.Class,
			Events:      len(def.Events),
			Counters:    def.Counters,
			Constrained: len(def.Constraints) > 0,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"platforms": out})
}

type benchmarkJSON struct {
	Name           string        `json:"name"`
	Description    string        `json:"description"`
	Platform       string        `json:"platform"`
	SignatureTable string        `json:"signature_table"`
	MetricTable    string        `json:"metric_table"`
	Figure         string        `json:"figure"`
	DefaultRun     cat.RunConfig `json:"default_run"`
	Config         core.Config   `json:"config"`
	Metrics        []string      `json:"metrics"`
}

func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	var out []benchmarkJSON
	for _, b := range suite.All() {
		p, err := b.NewPlatform()
		if err != nil {
			writeErr(w, err)
			return
		}
		bj := benchmarkJSON{
			Name:           b.Name,
			Description:    b.Description,
			Platform:       p.Name,
			SignatureTable: b.SignatureTable,
			MetricTable:    b.MetricTable,
			Figure:         b.Figure,
			DefaultRun:     b.DefaultRun,
			Config:         b.Config,
		}
		for _, sig := range b.Signatures {
			bj.Metrics = append(bj.Metrics, sig.Name)
		}
		out = append(out, bj)
	}
	writeJSON(w, http.StatusOK, map[string]any{"benchmarks": out})
}

func (s *Server) handleJobCreate(w http.ResponseWriter, r *http.Request) {
	var req analyzeRequest
	if err := decodeJSON(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	// Fail fast on requests that could never run.
	if _, _, _, err := s.resolve(req); err != nil {
		writeErr(w, err)
		return
	}
	j, err := s.jobs.enqueue(req)
	if errors.Is(err, errQueueFull) {
		// Admission control: a full queue is overload, and the client should
		// back off and retry rather than treat the daemon as down.
		s.admissionRejch.With("jobs").Inc()
		w.Header().Set("Retry-After", retryAfterHint)
		writeError(w, http.StatusTooManyRequests, err.Error())
		return
	}
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, j.snapshot())
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	view, ok, err := s.jobs.cancelJob(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no job %q", r.PathValue("id")))
		return
	}
	if err != nil {
		writeError(w, http.StatusConflict, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, view)
}
