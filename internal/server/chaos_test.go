package server

import (
	"context"
	"encoding/json"
	"github.com/perfmetrics/eventlens/internal/analysis"
	"net/http"
	"os"
	"strings"
	"testing"

	"github.com/perfmetrics/eventlens/internal/core"
	"github.com/perfmetrics/eventlens/internal/suite"
)

// metricsText fetches /metrics and returns the Prometheus text body.
func metricsText(t *testing.T, h http.Handler) string {
	t.Helper()
	w := get(t, h, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics: %d", w.Code)
	}
	return w.Body.String()
}

// TestJobQueueFull429 exhausts QueueDepth with no workers draining it: the
// next enqueue must be rejected by admission control — 429 plus Retry-After
// (not block, not drop silently) — the rejected job must not be registered,
// and the rejection must be visible in the request and admission counters.
func TestJobQueueFull429(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	// Deliberately no startJobWorkers: the queue can only fill.
	h := s.Handler()

	w := postJSON(t, h, "/v1/jobs", `{"benchmark":"branch"}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("first enqueue: %d %s", w.Code, w.Body)
	}
	w = postJSON(t, h, "/v1/jobs", `{"benchmark":"branch"}`)
	msg := decodeEnvelope(t, w, http.StatusTooManyRequests)
	if !strings.Contains(msg, "queue full") {
		t.Fatalf("message = %q", msg)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After hint")
	}
	// The rejected job left no residue: its ID does not resolve.
	if rec := get(t, h, "/v1/jobs/job-2"); rec.Code != http.StatusNotFound {
		t.Fatalf("rejected job resolvable: %d %s", rec.Code, rec.Body)
	}
	// Observability: the 429 is visible in the request and admission
	// counters, and the queue gauge reflects the one queued job.
	text := metricsText(t, h)
	if !strings.Contains(text, `eventlensd_requests_total{route="/v1/jobs",code="429"} 1`) {
		t.Fatalf("429 not counted:\n%s", grepLines(text, "requests_total"))
	}
	if !strings.Contains(text, `eventlensd_admission_rejected_total{site="jobs"} 1`) {
		t.Fatalf("admission rejection not counted:\n%s", grepLines(text, "admission"))
	}
	if !strings.Contains(text, "eventlensd_jobs_queue_depth 1") {
		t.Fatalf("queue depth gauge wrong:\n%s", grepLines(text, "queue_depth"))
	}
}

// TestJobRetryThenSucceed runs a job under a chaos plan whose transient
// fault clears after one attempt: the worker must retry with backoff and
// the job must end done, with the retry and the injected fault both counted.
func TestJobRetryThenSucceed(t *testing.T) {
	s := newTestServer(t, Config{
		Workers: 1,
		Chaos:   "seed=1,transient=1,depth=1,retries=2",
	})
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
	view = pollJob(t, h, view.ID, terminal)
	if view.Status != jobDone {
		t.Fatalf("status = %q (error %q), want done after retry", view.Status, view.Error)
	}
	var res analysis.Response
	if err := json.Unmarshal(view.Result, &res); err != nil || res.Report == "" {
		t.Fatalf("done job carries no result: %v", err)
	}
	text := metricsText(t, h)
	if !strings.Contains(text, `eventlensd_faults_injected_total{site="job",kind="transient"} 1`) {
		t.Fatalf("injected fault not counted:\n%s", grepLines(text, "faults_injected"))
	}
	if !strings.Contains(text, "eventlensd_job_retries_total 1") {
		t.Fatalf("retry not counted:\n%s", grepLines(text, "job_retries"))
	}
}

// TestJobRetryBudgetZero: the job budget is the chaos spec's retries=, and
// retries=0 is a budget of zero, not the default — the transient job fault
// fails the job without a single retry.
func TestJobRetryBudgetZero(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, Chaos: "seed=1,transient=1,depth=1,retries=0"})
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
	view = pollJob(t, h, view.ID, terminal)
	if view.Status != jobFailed || !strings.Contains(view.Error, "transient") {
		t.Fatalf("status = %q (error %q), want failed on the transient fault", view.Status, view.Error)
	}
	if text := metricsText(t, h); !strings.Contains(text, "eventlensd_job_retries_total 0") {
		t.Fatalf("a zero budget retried:\n%s", grepLines(text, "job_retries"))
	}
}

// TestJobPanicFaultFailsCleanly injects a permanent panic at the job seam:
// the job must end failed with an error naming the fault coordinate, and
// the worker must survive to serve the next (clean-seamed) job.
func TestJobPanicFaultFailsCleanly(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, Chaos: "seed=4,panic=1"})
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
	view = pollJob(t, h, view.ID, terminal)
	if view.Status != jobFailed {
		t.Fatalf("status = %q, want failed", view.Status)
	}
	if !strings.Contains(view.Error, "panicked") || !strings.Contains(view.Error, "job(branch,n0)") {
		t.Fatalf("error does not name the fault coordinate: %q", view.Error)
	}
}

// TestHTTPInjection503 covers the HTTP chaos seam: /v1/ requests are
// rejected with 503 + Retry-After, health and metrics stay reachable, and
// the injections are counted.
func TestHTTPInjection503(t *testing.T) {
	s := newTestServer(t, Config{Chaos: "seed=2,http503=1"})
	h := s.Handler()

	w := get(t, h, "/v1/benchmarks")
	msg := decodeEnvelope(t, w, http.StatusServiceUnavailable)
	if !strings.Contains(msg, "http(GET /v1/benchmarks,n0)") {
		t.Fatalf("injection does not name its coordinate: %q", msg)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After hint")
	}
	if rec := get(t, h, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz injected: %d", rec.Code)
	}
	text := metricsText(t, h)
	if !strings.Contains(text, `eventlensd_faults_injected_total{site="http",kind="http503"} 1`) {
		t.Fatalf("injection not counted:\n%s", grepLines(text, "faults_injected"))
	}
}

// TestHTTPInjectionTimeout covers the delayed-504 kind.
func TestHTTPInjectionTimeout(t *testing.T) {
	s := newTestServer(t, Config{Chaos: "seed=2,timeout=1"})
	h := s.Handler()
	w := get(t, h, "/v1/platforms")
	msg := decodeEnvelope(t, w, http.StatusGatewayTimeout)
	if !strings.Contains(msg, "timeout") {
		t.Fatalf("message = %q", msg)
	}
}

// TestHTTPInjectionReplays pins the per-endpoint ordinal coordinate: the
// same request sequence against two servers of the same seed sees the same
// fates.
func TestHTTPInjectionReplays(t *testing.T) {
	fates := func() []int {
		s := newTestServer(t, Config{Chaos: "seed=9,http503=0.5"})
		h := s.Handler()
		var codes []int
		for i := 0; i < 12; i++ {
			codes = append(codes, get(t, h, "/v1/benchmarks").Code)
		}
		return codes
	}
	a, b := fates(), fates()
	saw503, saw200 := false, false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d: %d vs %d across same-seed servers", i, a[i], b[i])
		}
		saw503 = saw503 || a[i] == http.StatusServiceUnavailable
		saw200 = saw200 || a[i] == http.StatusOK
	}
	if !saw503 || !saw200 {
		t.Fatalf("degenerate fate mix: %v", a)
	}
}

// TestChaosConfigValidation rejects unparsable specs up front.
func TestChaosConfigValidation(t *testing.T) {
	if err := (Config{Chaos: "bogus"}).Validate(); err == nil {
		t.Fatal("bad chaos spec accepted")
	}
	if err := (Config{Chaos: "seed=1,transient=0.5"}).Validate(); err != nil {
		t.Fatalf("valid chaos spec rejected: %v", err)
	}
}

// grepLines filters text to lines containing needle, for failure messages.
func grepLines(text, needle string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, needle) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestAnalyzePartialListsFaults: collection faults past the retry budget
// drop events, and the analyze body lists them under "faults". The daemon
// analyzes the set's noise profile, so the dropped events must survive
// profiling into the body's faults and its report, which must equal
// AnalyzeSet's of the same collection. AnalyzeSet runs the daemon's path,
// so this checks how dropped events are reported; the analysis itself is
// checked against the one-shot filter by TestRunEqualsAnalyzeSet and
// TestNoiseProfileMatchesReference.
func TestAnalyzePartialListsFaults(t *testing.T) {
	bench, err := suite.ByName("cpu-flops")
	if err != nil {
		t.Fatal(err)
	}
	run := bench.DefaultRun
	run.Faults = "seed=3,transient=0.2,retries=0"
	set, err := bench.Collect(context.Background(), run)
	if err != nil {
		t.Fatal(err)
	}
	res, err := bench.AnalyzeSet(context.Background(), set, bench.Config)
	if err != nil {
		t.Fatal(err)
	}
	defs, err := res.DefineMetrics(bench.Signatures)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Dropped) == 0 {
		t.Fatal("the fault spec dropped no events; pick one that does")
	}

	h := newTestServer(t, Config{}).Handler()
	w := postJSON(t, h, "/v1/analyze", marshalReq(t, analysis.Request{Benchmark: bench.Name, Run: &run}))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp analysis.Response
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if strings.Join(resp.Faults, ",") != strings.Join(set.Dropped, ",") {
		t.Fatalf("faults lists %d events, want the collection's %d dropped events", len(resp.Faults), len(set.Dropped))
	}
	if want := core.FormatAnalysisReport(res, bench.Config.ProjectionTol, bench.MetricTable, defs); resp.Report != want {
		t.Fatalf("report differs from AnalyzeSet's of the same collection:\n%s\nwant:\n%s", resp.Report, want)
	}
}

// TestCorruptFaultsAnswer503 pins the empty-200 fix: corrupt faults write
// NaN and ±Inf into measured values, which JSON cannot carry. A validate
// request under them answers a typed 503 instead of an empty 200, and
// neither the cache nor the store keeps anything, so the same request
// computes again and gets the same answer.
func TestCorruptFaultsAnswer503(t *testing.T) {
	dir := t.TempDir()
	h := newTestServer(t, Config{StoreDir: dir}).Handler()
	body := validateBody("spr", []string{"branch"}, `"faults":"seed=3,corrupt=0.1"`)
	for attempt := 0; attempt < 2; attempt++ {
		w := postJSON(t, h, "/v1/events/validate", body)
		if msg := decodeEnvelope(t, w, http.StatusServiceUnavailable); !strings.Contains(msg, "unsupported value") {
			t.Fatalf("attempt %d: message = %q, want the encoder's error", attempt, msg)
		}
		if src := w.Header().Get("X-Eventlens-Cache"); src != "" {
			t.Fatalf("attempt %d: a failed request reports cache rung %q", attempt, src)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("store holds %d entries (%v) after failed requests", len(entries), err)
	}
	text := metricsText(t, h)
	if !strings.Contains(text, `eventlensd_requests_total{route="/v1/events/validate",code="503"} 2`) {
		t.Fatalf("503s not counted:\n%s", grepLines(text, "requests_total"))
	}
}
