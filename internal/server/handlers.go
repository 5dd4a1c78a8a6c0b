package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"github.com/perfmetrics/eventlens/internal/analysis"
	"github.com/perfmetrics/eventlens/internal/canonjson"
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
	if errors.Is(err, analysis.ErrNotFound) {
		return http.StatusNotFound
	}
	if errors.Is(err, analysis.ErrInvalid) {
		return http.StatusBadRequest
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
// It returns the encoder's error (a value JSON cannot carry, such as NaN),
// so no response can become an empty 200: the ladder answers a 500 and
// neither caches nor stores it.
func canonicalJSON(v any) ([]byte, error) {
	body, err := canonjson.Encode(v)
	if err != nil {
		return nil, fmt.Errorf("server: encoding the response: %w", err)
	}
	return body, nil
}

// writeJSON serves v as canonical JSON, or a 500 if v cannot be encoded.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := canonicalJSON(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeBody(w, code, body)
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

// analysisRequest is what the server needs of the analysis package's
// request types (analysis.Request, DefineRequest, ExplainRequest): the key,
// the analysis to read and the response rendered from it.
type analysisRequest interface {
	Key(*machine.Registry) (string, error)
	Resolve(*machine.Registry, int) (analysis.ID, error)
	Render(*analysis.Analysis) (any, error)
}

// analysisEndpoint describes /v1/analyze (which async jobs share),
// /v1/metrics/define or /v1/events/explain: the request's key under the
// endpoint's prefix, and its response rendered from its analysis. Key
// rejects the requests that could never be served, before the ladder.
func analysisEndpoint[R analysisRequest](s *Server, prefix string) func(R) (endpoint, error) {
	return func(req R) (endpoint, error) {
		key, err := req.Key(s.platforms)
		if err != nil {
			return endpoint{}, err
		}
		return endpoint{
			key: prefix + key,
			compute: func(ctx context.Context) ([]byte, error) {
				a, err := s.analyze(ctx, req)
				if err != nil {
					return nil, err
				}
				v, err := req.Render(a)
				if err != nil {
					return nil, err
				}
				return canonicalJSON(v)
			},
		}, nil
	}
}

// analyze resolves an accepted request and returns its analysis through the
// analysis cache (with singleflight): on a miss, the measurement key's noise
// profile via the set cache, then the analysis stages over that shared
// (immutable) profile. Define, explain and presets requests on a key
// analyze served reuse its analysis.
func (s *Server) analyze(ctx context.Context, req analysisRequest) (*analysis.Analysis, error) {
	id, err := req.Resolve(s.platforms, s.cfg.PipelineWorkers)
	if err != nil {
		return nil, err
	}
	return s.analyses.do(ctx, id.Key(), func() (*analysis.Analysis, error) {
		prof, err := s.noiseProfile(ctx, id)
		if err != nil {
			return nil, err
		}
		a, err := id.Analyze(ctx, prof)
		if err != nil {
			return nil, err
		}
		s.pipelineRuns.Inc()
		return a, nil
	})
}

// noiseProfile returns the noise profile of an analysis's measurement set
// through the batching set cache, keyed by analysis.ID.MeasurementKey: K
// analysis configurations sharing it trigger exactly one collection and
// one noise pass, whether they join the flight or hit the cache. The
// collection reduces each event straight into the profile, so no raw set
// is built. Minimal-kernel collections count
// themselves and the points the selection pruned — the cost it saved.
func (s *Server) noiseProfile(ctx context.Context, id analysis.ID) (*core.NoiseProfile, error) {
	return s.sets.do(ctx, id.MeasurementKey(), func() (*core.NoiseProfile, error) {
		prof, err := id.Profile(ctx)
		if err != nil {
			return nil, err
		}
		if id.Run.MinimalKernels {
			s.minimalRuns.Inc()
			if basis, err := id.Bench.Basis(); err == nil && basis.Points() > len(prof.PointNames) {
				s.minimalPruned.Add(uint64(basis.Points() - len(prof.PointNames)))
			}
		}
		return prof, nil
	})
}

// cachedProfile is validate's source of noise profiles: the set cache's
// profile for the analysis's measurement key when the cache holds it, then
// the profile the analysis cache keeps with the same analysis — it holds
// far more entries than the set cache, so a default analysis outlives its
// set there — or else a collection of its own that is never inserted. A
// validation reads every benchmark of its platform at once; inserting them
// would hold up to three more profiles (mi250x's gpu-flops one alone is
// 478 KiB) and evict the sets analyses are sweeping, so the analysis family
// alone fills the cache. Fault runs have keys of their own, so they never
// read an analysis of a clean run.
func (s *Server) cachedProfile(ctx context.Context, id analysis.ID) (*core.NoiseProfile, error) {
	if prof, ok := s.sets.peek(id.MeasurementKey()); ok {
		return prof, nil
	}
	if a, ok := s.analyses.peek(id.Key()); ok {
		s.batchCoalesced.Inc()
		return a.Profile, nil
	}
	s.collections.Inc()
	return id.Profile(ctx)
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

// validateEndpoint describes /v1/events/validate: the canonical event-trust
// envelope for a platform, byte-identical to `validate -platform <p> -json`,
// keyed by the request's own key under the endpoint's prefix. Each
// benchmark's measurements come from cachedProfile. Requests carrying a
// fault spec degrade exactly like the CLI — lost benchmarks and dropped
// events are listed in the report, and only a validation losing every
// benchmark fails (as 503, never 500).
func (s *Server) validateEndpoint(req validate.Request) (endpoint, error) {
	key, err := req.KeyIn(s.platforms)
	if err != nil {
		return endpoint{}, httpError{http.StatusBadRequest, err.Error()}
	}
	return endpoint{
		key: "validate|" + key,
		compute: func(ctx context.Context) ([]byte, error) {
			if req.Workers == 0 {
				req.Workers = s.cfg.PipelineWorkers
			}
			report, err := validate.RunWith(ctx, s.platforms, req, s.cachedProfile)
			if err != nil {
				return nil, err
			}
			s.validateRuns.Inc()
			for _, verdict := range validate.VerdictOrder() {
				if n := report.Counts[verdict]; n > 0 {
					s.validateVerdicts.With(verdict).Add(uint64(n))
				}
			}
			body, err := validate.NewEnvelope(report).Encode()
			return body, encodeErr(err, req.Faults)
		},
	}, nil
}

// encodeErr types an envelope's encoding error. Corrupt faults can write NaN
// or ±Inf into measured values, which JSON cannot carry: under injection
// that is the daemon degrading itself, a 503 like a total fault loss, while
// without injection it is a bug and stays a 500. As an error it is neither
// cached nor stored.
func encodeErr(err error, faults string) error {
	if err != nil && faults != "" {
		return httpError{http.StatusServiceUnavailable, err.Error()}
	}
	return err
}

// ---- Composability matrix ---------------------------------------------

// matrixEndpoint describes /v1/matrix: the cross-architecture
// composability matrix over the registered platforms, byte-identical to
// `figures -fig matrix -json` for the same request, keyed by the request's
// own key under the endpoint's prefix. Each pair's analysis is the one
// /v1/analyze serves for the benchmark on the platform, read through
// analyze (the analysis cache, then the set cache), so only the cells are
// rendered at the request's threshold. Requests carrying a fault spec
// degrade like the CLI — pairs losing their collection are listed in the
// report — and only a matrix losing every pair fails (as 503, never 500).
func (s *Server) matrixEndpoint(req matrix.Request) (endpoint, error) {
	key, err := req.Key(s.platforms)
	if err != nil {
		return endpoint{}, httpError{http.StatusBadRequest, err.Error()}
	}
	return endpoint{
		key: "matrix|" + key,
		compute: func(ctx context.Context) ([]byte, error) {
			if req.Workers == 0 {
				req.Workers = s.cfg.PipelineWorkers
			}
			report, err := matrix.RunWith(ctx, s.platforms, req, func(ctx context.Context, r analysis.Request) (*analysis.Analysis, error) {
				return s.analyze(ctx, r)
			})
			if err != nil {
				return nil, err
			}
			s.matrixRuns.Inc()
			s.matrixCells.Add(uint64(report.Total))
			body, err := matrix.NewEnvelope(report).Encode()
			return body, encodeErr(err, req.Faults)
		},
	}, nil
}

// handlePresets serves the PAPI-style preset text of a benchmark's default
// analysis through the serving ladder, keyed by the analysis key under the
// endpoint's prefix. It is a GET with the benchmark in the path, so it is
// served where it lands rather than forwarded to the key's owner.
func (s *Server) handlePresets(w http.ResponseWriter, r *http.Request) {
	req := analysis.Request{Benchmark: r.PathValue("benchmark")}
	key, err := req.Key(s.platforms)
	if err != nil {
		writeErr(w, err)
		return
	}
	body, src, err := s.serve(r.Context(), endpoint{
		key: "presets|" + key,
		compute: func(ctx context.Context) ([]byte, error) {
			a, err := s.analyze(ctx, req)
			if err != nil {
				return nil, err
			}
			return []byte(a.Presets()), nil
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
// built-ins plus anything loaded from Config.PlatformDir — from the
// definitions of its live platforms.
func (s *Server) handlePlatforms(w http.ResponseWriter, r *http.Request) {
	var out []platformJSON
	for _, name := range s.platforms.Names() {
		p, err := s.platforms.Platform(name)
		if err != nil {
			writeErr(w, err)
			return
		}
		out = append(out, platformJSON{
			Name:        p.Name,
			Class:       p.Class,
			Events:      len(p.Events),
			Counters:    p.Counters,
			Constrained: len(p.Constraints) > 0,
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
		bj := benchmarkJSON{
			Name:           b.Name,
			Description:    b.Description,
			Platform:       b.Platform,
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
	var req analysis.Request
	if err := decodeJSON(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	// Fail fast on requests that could never run.
	if _, err := req.Key(s.platforms); err != nil {
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
