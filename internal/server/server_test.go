package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"github.com/perfmetrics/eventlens/internal/analysis"
	"github.com/perfmetrics/eventlens/internal/cat"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// newTestServer returns a Server with a quiet logger and small limits
// suitable for handler tests.
func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func postJSON(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

// decodeEnvelope asserts a JSON error envelope with the given status.
// mustEncode renders a validate or matrix envelope, failing the test if it
// cannot.
func mustEncode(t *testing.T, env interface{ Encode() ([]byte, error) }) []byte {
	t.Helper()
	body, err := env.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func decodeEnvelope(t *testing.T, w *httptest.ResponseRecorder, wantCode int) string {
	t.Helper()
	if w.Code != wantCode {
		t.Fatalf("status = %d, want %d; body: %s", w.Code, wantCode, w.Body)
	}
	var env errorEnvelope
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatalf("error body is not a JSON envelope: %v\n%s", err, w.Body)
	}
	if env.Error.Code != wantCode || env.Error.Message == "" {
		t.Fatalf("bad envelope: %+v", env)
	}
	return env.Error.Message
}

func TestHealthz(t *testing.T) {
	h := newTestServer(t, Config{}).Handler()
	w := get(t, h, "/healthz")
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"ok"`) {
		t.Fatalf("healthz: %d %s", w.Code, w.Body)
	}
}

func TestAnalyzeUnknownBenchmark(t *testing.T) {
	h := newTestServer(t, Config{}).Handler()
	msg := decodeEnvelope(t, postJSON(t, h, "/v1/analyze", `{"benchmark":"nope"}`), http.StatusNotFound)
	if !strings.Contains(msg, "unknown benchmark") {
		t.Fatalf("message = %q", msg)
	}
}

func TestAnalyzeMalformedJSON(t *testing.T) {
	h := newTestServer(t, Config{}).Handler()
	decodeEnvelope(t, postJSON(t, h, "/v1/analyze", `{"benchmark":`), http.StatusBadRequest)
	decodeEnvelope(t, postJSON(t, h, "/v1/analyze", ``), http.StatusBadRequest)
	decodeEnvelope(t, postJSON(t, h, "/v1/analyze", `{"benchmark":"cpu-flops"} trailing`), http.StatusBadRequest)
	// A stray closing delimiter is trailing garbage too, though the
	// decoder's More reports no further value before it.
	decodeEnvelope(t, postJSON(t, h, "/v1/analyze", `{"benchmark":"cpu-flops"}}`), http.StatusBadRequest)
	decodeEnvelope(t, postJSON(t, h, "/v1/analyze", `{"benchmark":"cpu-flops"}]`), http.StatusBadRequest)
	// Unknown fields are rejected: the API surface is canonical.
	decodeEnvelope(t, postJSON(t, h, "/v1/analyze", `{"benchmark":"cpu-flops","bogus":1}`), http.StatusBadRequest)
	// Invalid run/config values are 400s, not pipeline failures.
	decodeEnvelope(t, postJSON(t, h, "/v1/analyze", `{"benchmark":"cpu-flops","run":{"reps":0,"threads":1}}`), http.StatusBadRequest)
	decodeEnvelope(t, postJSON(t, h, "/v1/analyze", `{"benchmark":"cpu-flops","config":{"tau":1e-10,"alpha":0,"projection_tol":0.01,"round_tol":0.05}}`), http.StatusBadRequest)
	decodeEnvelope(t, postJSON(t, h, "/v1/analyze", `{}`), http.StatusBadRequest)
}

// TestAnalyzeRoundTolChecked: a negative round_tol is a 400 naming the
// field, not a 200 cached under a key of its own; an omitted one decodes
// to 0 and analyzes.
func TestAnalyzeRoundTolChecked(t *testing.T) {
	h := newTestServer(t, Config{}).Handler()
	w := postJSON(t, h, "/v1/analyze", `{"benchmark":"branch","config":{"tau":1e-10,"alpha":5e-4,"projection_tol":1e-2,"round_tol":-1}}`)
	if msg := decodeEnvelope(t, w, http.StatusBadRequest); !strings.Contains(msg, "round_tol") {
		t.Fatalf("message = %q, want it to name round_tol", msg)
	}
	if got := w.Header().Get("X-Eventlens-Cache"); got != "" {
		t.Fatalf("rejected request answered from the %q rung", got)
	}
	if w := postJSON(t, h, "/v1/analyze", `{"benchmark":"branch","config":{"tau":1e-10,"alpha":5e-4,"projection_tol":1e-2}}`); w.Code != http.StatusOK {
		t.Fatalf("omitted round_tol: %d %s", w.Code, w.Body)
	}
}

// TestAnalyzeRunBounds: reps and threads past the collection caps are a 400
// that names the bound. Unbounded, the first body overflows
// reps × threads × groups and panics mid-collection, which drops the
// connection. A run at the cap computes.
func TestAnalyzeRunBounds(t *testing.T) {
	h := newTestServer(t, Config{}).Handler()
	msg := decodeEnvelope(t, postJSON(t, h, "/v1/analyze", `{"benchmark":"cpu-flops","run":{"reps":4611686018427387904,"threads":4}}`), http.StatusBadRequest)
	if want := fmt.Sprintf("<= %d", cat.MaxSamples); !strings.Contains(msg, want) {
		t.Fatalf("message = %q, want the bound %q", msg, want)
	}
	msg = decodeEnvelope(t, postJSON(t, h, "/v1/analyze", fmt.Sprintf(`{"benchmark":"branch","run":{"reps":1,"threads":%d}}`, cat.MaxThreads+1)), http.StatusBadRequest)
	if want := fmt.Sprintf("<= %d", cat.MaxThreads); !strings.Contains(msg, want) {
		t.Fatalf("message = %q, want the bound %q", msg, want)
	}
	atCap := fmt.Sprintf(`{"benchmark":"branch","run":{"reps":%d,"threads":%d}}`, cat.MaxSamples/cat.MaxThreads, cat.MaxThreads)
	if w := postJSON(t, h, "/v1/analyze", atCap); w.Code != http.StatusOK {
		t.Fatalf("run at the cap: status %d: %s", w.Code, w.Body)
	}
}

func TestAnalyzeOversizedBody(t *testing.T) {
	h := newTestServer(t, Config{MaxBodyBytes: 128}).Handler()
	big := fmt.Sprintf(`{"benchmark":"cpu-flops","run":{"reps":5,"threads":1},"config":null%s}`, strings.Repeat(" ", 200))
	decodeEnvelope(t, postJSON(t, h, "/v1/analyze", big), http.StatusRequestEntityTooLarge)
}

func TestAnalyzeCPUFlops(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	w := postJSON(t, h, "/v1/analyze", `{"benchmark":"cpu-flops"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body)
	}
	if got := w.Header().Get("X-Eventlens-Cache"); got != "miss" {
		t.Fatalf("first request cache header = %q", got)
	}
	var resp analysis.Response
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Platform != "spr-sim" || len(resp.SelectedEvents) != 8 {
		t.Fatalf("platform %q, %d selected events", resp.Platform, len(resp.SelectedEvents))
	}
	dp := -1
	for i, m := range resp.Metrics {
		if m.Metric == "DP Ops." {
			dp = i
		}
	}
	if dp < 0 || !resp.Metrics[dp].Composable {
		t.Fatalf("DP Ops. should be composable: %+v", resp.Metrics)
	}
	if !strings.Contains(resp.Report, "metric definitions (paper Table V):") {
		t.Fatalf("report missing metric table:\n%s", resp.Report)
	}

	// Second identical request is a cache hit with an identical body.
	w2 := postJSON(t, h, "/v1/analyze", `{"benchmark":"cpu-flops"}`)
	if got := w2.Header().Get("X-Eventlens-Cache"); got != "hit" {
		t.Fatalf("second request cache header = %q", got)
	}
	if !bytes.Equal(w.Body.Bytes(), w2.Body.Bytes()) {
		t.Fatal("cached response differs from computed response")
	}
}

// TestSingleflightCollapsesConcurrentAnalyzes is the acceptance check for
// the cache: N parallel identical requests must produce exactly one
// pipeline execution, the rest sharing its result.
func TestSingleflightCollapsesConcurrentAnalyzes(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 32
	var wg sync.WaitGroup
	start := make(chan struct{})
	bodies := make([][]byte, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := http.Post(ts.URL+"/v1/analyze", "application/json",
				strings.NewReader(`{"benchmark":"cpu-flops"}`))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			bodies[i], errs[i] = io.ReadAll(resp.Body)
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("response %d differs from response 0", i)
		}
	}
	if runs := s.pipelineRuns.Value(); runs != 1 {
		t.Fatalf("pipeline ran %d times for %d identical requests", runs, n)
	}
	if misses := s.cacheMisses.Value(); misses != 1 {
		t.Fatalf("cache misses = %d", misses)
	}
	if hits := s.cacheHits.Value(); hits != n-1 {
		t.Fatalf("cache hits = %d, want %d", hits, n-1)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	s := newTestServer(t, Config{CacheSize: 2})
	h := s.Handler()
	for _, tau := range []string{"1e-10", "2e-10", "3e-10"} {
		body := fmt.Sprintf(`{"benchmark":"cpu-flops","config":{"tau":%s,"alpha":5e-4,"projection_tol":0.01,"round_tol":0.05}}`, tau)
		if w := postJSON(t, h, "/v1/analyze", body); w.Code != http.StatusOK {
			t.Fatalf("status = %d: %s", w.Code, w.Body)
		}
	}
	s.cache.mu.Lock()
	got := s.cache.ll.Len()
	s.cache.mu.Unlock()
	if got != 2 {
		t.Fatalf("cache holds %d entries, want 2", got)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	postJSON(t, h, "/v1/analyze", `{"benchmark":"cpu-flops"}`)
	postJSON(t, h, "/v1/analyze", `{"benchmark":"cpu-flops"}`)
	postJSON(t, h, "/v1/analyze", `{"benchmark":"nope"}`)
	w := get(t, h, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", w.Code)
	}
	out := w.Body.String()
	for _, want := range []string{
		`eventlensd_requests_total{route="/v1/analyze",code="200"} 2`,
		`eventlensd_requests_total{route="/v1/analyze",code="404"} 1`,
		"eventlensd_cache_hits_total 1",
		"eventlensd_cache_misses_total 1",
		"eventlensd_pipeline_runs_total 1",
		"eventlensd_jobs_inflight 0",
		"eventlensd_jobs_queue_depth 0",
		"# TYPE eventlensd_pipeline_seconds histogram",
		"eventlensd_pipeline_seconds_count 1",
		// Distributed-tier metrics are always exported, even when the store
		// and sharding are off, so dashboards never miss series.
		"eventlensd_store_hits_total 0",
		"eventlensd_store_misses_total 0",
		"eventlensd_store_writes_total 0",
		"eventlensd_store_corrupt_total 0",
		"eventlensd_store_entries 0",
		"eventlensd_batch_coalesced_total 0",
		"eventlensd_collections_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Log(out)
	}
}

func TestDefineMetric(t *testing.T) {
	h := newTestServer(t, Config{}).Handler()
	w := postJSON(t, h, "/v1/metrics/define", `{"benchmark":"cpu-flops","metric":"DP Ops."}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body)
	}
	var resp analysis.DefineResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Metric.Composable || resp.Preset == nil {
		t.Fatalf("DP Ops. should compose with a preset: %s", w.Body)
	}
	if resp.Preset.Name != "PAPI_DP_OPS" {
		t.Fatalf("preset name = %q", resp.Preset.Name)
	}

	// A custom signature in basis coordinates also solves.
	w = postJSON(t, h, "/v1/metrics/define",
		`{"benchmark":"branch","signature":{"name":"Taken","coeffs":[0,0,1,0,0]}}`)
	if w.Code != http.StatusOK {
		t.Fatalf("custom signature: %d %s", w.Code, w.Body)
	}

	decodeEnvelope(t, postJSON(t, h, "/v1/metrics/define", `{"benchmark":"cpu-flops","metric":"No Such Metric."}`), http.StatusNotFound)
	decodeEnvelope(t, postJSON(t, h, "/v1/metrics/define", `{"benchmark":"cpu-flops"}`), http.StatusBadRequest)
	decodeEnvelope(t, postJSON(t, h, "/v1/metrics/define",
		`{"benchmark":"cpu-flops","metric":"DP Ops.","signature":{"name":"x","coeffs":[1]}}`), http.StatusBadRequest)
	// Wrong-dimension custom signature is a client error, not a 500.
	decodeEnvelope(t, postJSON(t, h, "/v1/metrics/define",
		`{"benchmark":"cpu-flops","signature":{"name":"short","coeffs":[1,2]}}`), http.StatusBadRequest)
}

// TestDefineNonFiniteSolution posts a signature whose least-squares
// solution overflows: every attempt is a 400 naming the signature, no
// attempt reports a cache rung, and the store stays empty. The daemon used
// to drop the encoder's error and serve, cache and store an empty 200.
func TestDefineNonFiniteSolution(t *testing.T) {
	dir := t.TempDir()
	h := newTestServer(t, Config{StoreDir: dir}).Handler()
	body := `{"benchmark":"branch","signature":{"name":"x","coeffs":[1e308,1e308,1e308,1e308,1e308]}}`
	for attempt := 0; attempt < 2; attempt++ {
		w := postJSON(t, h, "/v1/metrics/define", body)
		if msg := decodeEnvelope(t, w, http.StatusBadRequest); !strings.Contains(msg, `defining "x"`) {
			t.Fatalf("attempt %d: message = %q, want the definition's error", attempt, msg)
		}
		if src := w.Header().Get("X-Eventlens-Cache"); src != "" {
			t.Fatalf("attempt %d: a failed request reports cache rung %q", attempt, src)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("store holds %d entries (%v) after failed requests", len(entries), err)
	}
}

// TestWriteJSONUnencodable pins the net under every response: a value JSON
// cannot carry is a 500 with the encoder's error, never an empty 200.
func TestWriteJSONUnencodable(t *testing.T) {
	w := httptest.NewRecorder()
	writeJSON(w, http.StatusOK, map[string]float64{"x": math.Inf(1)})
	if msg := decodeEnvelope(t, w, http.StatusInternalServerError); !strings.Contains(msg, "unsupported value") {
		t.Fatalf("message = %q, want the encoder's error", msg)
	}
	if _, err := canonicalJSON(math.NaN()); err == nil {
		t.Fatal("canonicalJSON encoded NaN")
	}
}

func TestExplainEvents(t *testing.T) {
	h := newTestServer(t, Config{}).Handler()
	w := postJSON(t, h, "/v1/events/explain", `{"benchmark":"branch"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body)
	}
	var resp analysis.ExplainResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Explanations) == 0 || len(resp.Basis) != 5 {
		t.Fatalf("explanations = %d, basis = %v", len(resp.Explanations), resp.Basis)
	}
	one := resp.Explanations[0].Event
	w = postJSON(t, h, "/v1/events/explain", fmt.Sprintf(`{"benchmark":"branch","event":%q}`, one))
	if w.Code != http.StatusOK {
		t.Fatalf("single event: %d %s", w.Code, w.Body)
	}
	decodeEnvelope(t, postJSON(t, h, "/v1/events/explain", `{"benchmark":"branch","event":"NO_SUCH_EVENT"}`), http.StatusNotFound)
}

// TestExplainAllMatchesPerEvent pins the "all" body to the per-event
// requests: it lists the same explanations, in the analysis's KeptOrder.
func TestExplainAllMatchesPerEvent(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	explain := func(body string) analysis.ExplainResponse {
		t.Helper()
		w := postJSON(t, h, "/v1/events/explain", body)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status = %d: %s", body, w.Code, w.Body)
		}
		var resp analysis.ExplainResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	all := explain(`{"benchmark":"branch"}`)
	a, err := s.analyze(context.Background(), analysis.Request{Benchmark: "branch"})
	if err != nil {
		t.Fatal(err)
	}
	kept := a.Result.Noise.KeptOrder
	if len(kept) == 0 || len(all.Explanations) != len(kept) {
		t.Fatalf("all lists %d explanations, %d events kept", len(all.Explanations), len(kept))
	}
	for i, event := range kept {
		one := explain(fmt.Sprintf(`{"benchmark":"branch","event":%q}`, event))
		if len(one.Explanations) != 1 || !reflect.DeepEqual(one.Explanations[0], all.Explanations[i]) {
			t.Fatalf("explanation %d (%s): all lists %+v, the per-event request %+v", i, event, all.Explanations[i], one.Explanations)
		}
	}
}

func TestPresetsEndpoint(t *testing.T) {
	h := newTestServer(t, Config{}).Handler()
	w := get(t, h, "/v1/presets/cpu-flops")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body)
	}
	out := w.Body.String()
	if !strings.Contains(out, "PRESET,PAPI_DP_OPS,DERIVED_POSTFIX,") {
		t.Fatalf("presets output missing DP Ops:\n%s", out)
	}
	if !strings.HasPrefix(out, "# auto-generated presets for spr-sim (cpu-flops benchmark)") {
		t.Fatalf("presets header wrong:\n%s", out)
	}
	decodeEnvelope(t, get(t, h, "/v1/presets/nope"), http.StatusNotFound)
}

// TestAnalysisEndpointsCached pins define, explain and presets to the
// serving ladder: a repeated identical request is a memory hit with the same
// bytes and does not run the analysis stages again.
func TestAnalysisEndpointsCached(t *testing.T) {
	for _, tc := range []struct{ name, path, body string }{
		{"define", "/v1/metrics/define", `{"benchmark":"cpu-flops","metric":"DP Ops."}`},
		{"define-custom", "/v1/metrics/define", `{"benchmark":"branch","signature":{"name":"Taken","coeffs":[0,0,1,0,0]}}`},
		{"explain", "/v1/events/explain", `{"benchmark":"branch"}`},
		{"presets", "/v1/presets/cpu-flops", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestServer(t, Config{})
			h := s.Handler()
			send := func() *httptest.ResponseRecorder {
				if tc.body == "" {
					return get(t, h, tc.path)
				}
				return postJSON(t, h, tc.path, tc.body)
			}
			first := send()
			if first.Code != http.StatusOK {
				t.Fatalf("first: %d %s", first.Code, first.Body)
			}
			if got := first.Header().Get("X-Eventlens-Cache"); got != "miss" {
				t.Fatalf("first cache header = %q, want \"miss\"", got)
			}
			runs := s.pipelineRuns.Value()
			second := send()
			if got := second.Header().Get("X-Eventlens-Cache"); got != "hit" {
				t.Fatalf("repeat cache header = %q, want \"hit\"", got)
			}
			if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
				t.Fatal("cache hit served different bytes")
			}
			if got := second.Header().Get("Content-Type"); got != first.Header().Get("Content-Type") {
				t.Fatalf("content type %q on the hit, %q on the miss", got, first.Header().Get("Content-Type"))
			}
			if got := s.pipelineRuns.Value(); got != runs {
				t.Fatalf("pipeline runs %d -> %d on a repeated request", runs, got)
			}
		})
	}
}

// TestAnalysisReusedAfterSetEviction pins the analysis cache: define,
// explain and presets on a key /v1/analyze served reuse its analysis, with
// no collection and no analysis run, even after more measurement keys than
// the measurement-set cache holds were analysed since.
func TestAnalysisReusedAfterSetEviction(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	if w := postJSON(t, h, "/v1/analyze", `{"benchmark":"cpu-flops"}`); w.Code != http.StatusOK {
		t.Fatalf("analyze: %d %s", w.Code, w.Body)
	}
	for reps := 2; reps < 2+setCacheSize+1; reps++ {
		body := fmt.Sprintf(`{"benchmark":"branch","run":{"reps":%d,"threads":1}}`, reps)
		if w := postJSON(t, h, "/v1/analyze", body); w.Code != http.StatusOK {
			t.Fatalf("analyze %s: %d %s", body, w.Code, w.Body)
		}
	}
	collections, runs := s.collections.Value(), s.pipelineRuns.Value()
	for _, w := range []*httptest.ResponseRecorder{
		postJSON(t, h, "/v1/metrics/define", `{"benchmark":"cpu-flops","metric":"DP Ops."}`),
		postJSON(t, h, "/v1/events/explain", `{"benchmark":"cpu-flops"}`),
		get(t, h, "/v1/presets/cpu-flops"),
	} {
		if w.Code != http.StatusOK {
			t.Fatalf("status = %d: %s", w.Code, w.Body)
		}
		if got := w.Header().Get("X-Eventlens-Cache"); got != "miss" {
			t.Fatalf("cache header = %q, want \"miss\"", got)
		}
	}
	if got := s.collections.Value(); got != collections {
		t.Fatalf("collections %d -> %d", collections, got)
	}
	if got := s.pipelineRuns.Value(); got != runs {
		t.Fatalf("pipeline runs %d -> %d", runs, got)
	}
}

// TestAnalysisSharedAcrossEndpoints: concurrent first requests of every
// endpoint rendered from one analysis key share one analysis flight.
func TestAnalysisSharedAcrossEndpoints(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	requests := []struct{ method, path, body string }{
		{http.MethodPost, "/v1/analyze", `{"benchmark":"cpu-flops"}`},
		{http.MethodPost, "/v1/metrics/define", `{"benchmark":"cpu-flops","metric":"DP Ops."}`},
		{http.MethodPost, "/v1/metrics/define", `{"benchmark":"cpu-flops","metric":"SP Ops."}`},
		{http.MethodPost, "/v1/events/explain", `{"benchmark":"cpu-flops"}`},
		{http.MethodPost, "/v1/events/explain", `{"benchmark":"cpu-flops","event":"ASSISTS:FP"}`},
		{http.MethodGet, "/v1/presets/cpu-flops", ""},
	}
	codes := make([]int, len(requests))
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i, r := range requests {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(r.method, r.path, strings.NewReader(r.body)))
			codes[i] = w.Code
		}()
	}
	close(start)
	wg.Wait()
	want := []int{200, 200, 200, 200, 404, 200}
	for i, code := range codes {
		if code != want[i] {
			t.Fatalf("%s %s: status %d, want %d", requests[i].path, requests[i].body, code, want[i])
		}
	}
	if runs, collections := s.pipelineRuns.Value(), s.collections.Value(); runs != 1 || collections != 1 {
		t.Fatalf("%d analyses and %d collections for one analysis key, want 1 and 1", runs, collections)
	}
}

// TestBadAnalysisRequestsComputeNothing: a custom signature of the wrong
// dimension and an event outside the platform catalog are rejected before
// any analysis, and an event the analysis did not keep costs no second
// analysis, however often they repeat.
func TestBadAnalysisRequestsComputeNothing(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	for i := 0; i < 3; i++ {
		msg := decodeEnvelope(t, postJSON(t, h, "/v1/metrics/define",
			`{"benchmark":"cpu-flops","signature":{"name":"short","coeffs":[1,2]}}`), http.StatusBadRequest)
		if want := `core: signature "short" has 2 coefficients, Xhat has 16 rows`; msg != want {
			t.Fatalf("define message = %q, want %q", msg, want)
		}
		decodeEnvelope(t, postJSON(t, h, "/v1/events/explain",
			`{"benchmark":"cpu-flops","event":"NO_SUCH_EVENT"}`), http.StatusNotFound)
	}
	if runs, collections, misses := s.pipelineRuns.Value(), s.collections.Value(), s.cacheMisses.Value(); runs+collections+misses != 0 {
		t.Fatalf("rejected requests reached the ladder: %d analyses, %d collections, %d cache misses", runs, collections, misses)
	}
	if w := postJSON(t, h, "/v1/analyze", `{"benchmark":"cpu-flops"}`); w.Code != http.StatusOK {
		t.Fatalf("analyze: %d %s", w.Code, w.Body)
	}
	// ASSISTS:FP is in the platform catalog, but cpu-flops never keeps it.
	for i := 0; i < 3; i++ {
		decodeEnvelope(t, postJSON(t, h, "/v1/events/explain",
			`{"benchmark":"cpu-flops","event":"ASSISTS:FP"}`), http.StatusNotFound)
	}
	if runs := s.pipelineRuns.Value(); runs != 1 {
		t.Fatalf("pipeline runs = %d, want 1", runs)
	}
}

func TestPlatformsAndBenchmarks(t *testing.T) {
	h := newTestServer(t, Config{}).Handler()
	w := get(t, h, "/v1/platforms")
	if w.Code != http.StatusOK {
		t.Fatalf("platforms: %d", w.Code)
	}
	for _, name := range []string{"spr-sim", "mi250x-sim", "zen4-sim"} {
		if !strings.Contains(w.Body.String(), name) {
			t.Errorf("platforms missing %q: %s", name, w.Body)
		}
	}
	w = get(t, h, "/v1/benchmarks")
	if w.Code != http.StatusOK {
		t.Fatalf("benchmarks: %d", w.Code)
	}
	for _, name := range []string{"cpu-flops", "gpu-flops", "branch", "dcache", "DP Ops."} {
		if !strings.Contains(w.Body.String(), name) {
			t.Errorf("benchmarks missing %q", name)
		}
	}
}

func TestJobLifecycle(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{Workers: 2, StoreDir: dir})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.startJobWorkers(ctx)
	h := s.Handler()

	w := postJSON(t, h, "/v1/jobs", `{"benchmark":"branch"}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("enqueue: %d %s", w.Code, w.Body)
	}
	var view jobView
	if err := json.Unmarshal(w.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	if view.ID == "" || (view.Status != jobQueued && view.Status != jobRunning) {
		t.Fatalf("bad job view: %+v", view)
	}
	if loc := w.Header().Get("Location"); loc != "/v1/jobs/"+view.ID {
		t.Fatalf("Location = %q", loc)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		w = get(t, h, "/v1/jobs/"+view.ID)
		if w.Code != http.StatusOK {
			t.Fatalf("poll: %d %s", w.Code, w.Body)
		}
		if err := json.Unmarshal(w.Body.Bytes(), &view); err != nil {
			t.Fatal(err)
		}
		if view.Status == jobDone {
			break
		}
		if view.Status == jobFailed || view.Status == jobCanceled {
			t.Fatalf("job ended %s: %s", view.Status, view.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", view.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	var res analysis.Response
	if err := json.Unmarshal(view.Result, &res); err != nil || res.Benchmark != "branch" {
		t.Fatalf("done job missing result (%v): %s", err, w.Body)
	}

	// The async result is the synchronous endpoint's body, here served from
	// the entry the job computed.
	sync := postJSON(t, h, "/v1/analyze", `{"benchmark":"branch"}`)
	if got := sync.Header().Get("X-Eventlens-Cache"); got != "hit" {
		t.Fatalf("sync after job: cache header = %q", got)
	}
	sameCompactJSON(t, view.Result, sync.Body.Bytes())

	// After a restart on the same store the job is served from the stored
	// entry, and its result is still the synchronous body.
	s2 := newTestServer(t, Config{Workers: 1, StoreDir: dir})
	s2.startJobWorkers(ctx)
	h2 := s2.Handler()
	w = postJSON(t, h2, "/v1/jobs", `{"benchmark":"branch"}`)
	if err := json.Unmarshal(w.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	view = pollJob(t, h2, view.ID, terminal)
	if view.Status != jobDone {
		t.Fatalf("warmed job ended %s: %s", view.Status, view.Error)
	}
	if got := s2.collections.Value(); got != 0 {
		t.Fatalf("warmed job ran %d collection passes, want 0", got)
	}
	sameCompactJSON(t, view.Result, sync.Body.Bytes())

	decodeEnvelope(t, get(t, h, "/v1/jobs/job-999"), http.StatusNotFound)
	// Jobs referencing unknown benchmarks are rejected at enqueue time.
	decodeEnvelope(t, postJSON(t, h, "/v1/jobs", `{"benchmark":"nope"}`), http.StatusNotFound)
}

// sameCompactJSON fails unless two JSON documents are equal byte for byte
// once insignificant whitespace is removed.
func sameCompactJSON(t *testing.T, got, want []byte) {
	t.Helper()
	var g, w bytes.Buffer
	if err := json.Compact(&g, got); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&w, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g.Bytes(), w.Bytes()) {
		t.Fatalf("JSON differs:\n got: %s\nwant: %s", g.Bytes(), w.Bytes())
	}
}

func TestJobCancelQueuedAndQueueFull(t *testing.T) {
	// No workers started: jobs stay queued, so cancellation and queue
	// overflow are deterministic.
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	h := s.Handler()

	w := postJSON(t, h, "/v1/jobs", `{"benchmark":"branch"}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("enqueue: %d %s", w.Code, w.Body)
	}
	var view jobView
	if err := json.Unmarshal(w.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}

	// Queue holds one job already: the next enqueue is rejected by admission
	// control — 429 with a Retry-After hint, not a 5xx.
	full := postJSON(t, h, "/v1/jobs", `{"benchmark":"branch"}`)
	decodeEnvelope(t, full, http.StatusTooManyRequests)
	if full.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After hint")
	}

	req := httptest.NewRequest(http.MethodDelete, "/v1/jobs/"+view.ID, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("cancel: %d %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	if view.Status != jobCanceled {
		t.Fatalf("status after cancel = %q", view.Status)
	}

	// Cancelling again conflicts.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v1/jobs/"+view.ID, nil))
	decodeEnvelope(t, rec, http.StatusConflict)
}

// TestRunGracefulShutdown boots the real listener, verifies it serves, then
// cancels the context and expects a clean drain.
func TestRunGracefulShutdown(t *testing.T) {
	s := newTestServer(t, Config{Addr: "127.0.0.1:0", ShutdownTimeout: 5 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- s.Run(ctx) }()

	addr, err := s.WaitAddr(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr.String()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()

	// Leave a job in flight so shutdown has something to drain.
	jr, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(`{"benchmark":"cpu-flops"}`))
	if err != nil {
		t.Fatal(err)
	}
	_ = jr.Body.Close()

	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("Run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown did not complete")
	}
}
