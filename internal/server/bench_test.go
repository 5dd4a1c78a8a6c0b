package server

// Service-layer latency baselines for future perf PRs: the cached path
// measures HTTP + JSON + cache lookup overhead; the uncached path adds an
// analysis run per request (each iteration uses a distinct tau so every
// request misses).

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/perfmetrics/eventlens/internal/suite"
)

func benchServer(b *testing.B, cacheSize int) http.Handler {
	b.Helper()
	s, err := New(Config{
		CacheSize: cacheSize,
		Logger:    slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		b.Fatal(err)
	}
	return s.Handler()
}

func benchPost(b *testing.B, h http.Handler, body string) {
	b.Helper()
	benchDo(b, h, http.MethodPost, "/v1/analyze", body)
}

func benchDo(b *testing.B, h http.Handler, method, path, body string) {
	b.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		b.Fatalf("status = %d: %s", w.Code, w.Body)
	}
}

func BenchmarkAnalyzeCached(b *testing.B) {
	h := benchServer(b, 64)
	benchPost(b, h, `{"benchmark":"cpu-flops"}`) // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, h, `{"benchmark":"cpu-flops"}`)
	}
}

func BenchmarkAnalyzeUncached(b *testing.B) {
	// Unbounded cache so eviction cost is not measured; every iteration
	// varies tau (numerically irrelevant for this benchmark's noise floor)
	// to force a distinct cache key and hence an analysis run. The run
	// cuts the measurement key's cached noise profile at its tau, so
	// varying tau no longer forces a noise pass: the iterations time the
	// cut, projection, QRCP, definitions and response rendering.
	h := benchServer(b, 1<<30)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := fmt.Sprintf(
			`{"benchmark":"cpu-flops","config":{"tau":%g,"alpha":5e-4,"projection_tol":0.01,"round_tol":0.05}}`,
			1e-10+float64(i)*1e-18)
		benchPost(b, h, body)
	}
}

// evictKeys is how many other measurement keys
// BenchmarkAnalysisEndpointsAfterEviction analyses between the target
// analysis and the timed request: one more than the measurement-set cache
// holds, so the target's set is no longer cached.
const evictKeys = setCacheSize + 1

// BenchmarkAnalysisEndpointsAfterEviction times the first define, explain
// and presets request on a benchmark's default analysis after /v1/analyze
// served that analysis and then evictKeys other measurement keys. Each
// iteration builds a fresh server, so every timed request is the first for
// its key. ns/op covers the whole iteration, whose ten analyses keep b.N
// small; ms/req is the measured request alone.
func BenchmarkAnalysisEndpointsAfterEviction(b *testing.B) {
	for _, name := range []string{"cpu-flops", "dcache"} {
		bench, err := suite.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		requests := []struct{ endpoint, method, path, body string }{
			{"define", http.MethodPost, "/v1/metrics/define",
				fmt.Sprintf(`{"benchmark":%q,"metric":%q}`, name, bench.Signatures[0].Name)},
			{"explain", http.MethodPost, "/v1/events/explain", fmt.Sprintf(`{"benchmark":%q}`, name)},
			{"presets", http.MethodGet, "/v1/presets/" + name, ""},
		}
		for _, r := range requests {
			b.Run(name+"/"+r.endpoint, func(b *testing.B) {
				var spent time.Duration
				for i := 0; i < b.N; i++ {
					h := benchServer(b, 64)
					benchDo(b, h, http.MethodPost, "/v1/analyze", fmt.Sprintf(`{"benchmark":%q}`, name))
					for reps := 2; reps < 2+evictKeys; reps++ {
						benchDo(b, h, http.MethodPost, "/v1/analyze",
							fmt.Sprintf(`{"benchmark":"branch","run":{"reps":%d,"threads":1}}`, reps))
					}
					start := time.Now()
					benchDo(b, h, r.method, r.path, r.body)
					spent += time.Since(start)
				}
				b.ReportMetric(float64(spent.Microseconds())/1e3/float64(b.N), "ms/req")
			})
		}
	}
}

// BenchmarkValidateAfterAnalyze times a validation served from cached
// noise profiles: the platform's default analyses fill the set cache once,
// and every iteration validates at a distinct noisy_tau, so each misses
// the result cache and reads every benchmark's profile from the set cache.
// What it times is the ground truth, the documented counts and the
// classification, with no collection.
func BenchmarkValidateAfterAnalyze(b *testing.B) {
	for _, platform := range []string{"spr", "mi250x"} {
		b.Run(platform, func(b *testing.B) {
			h := benchServer(b, 1<<30)
			for _, bench := range suite.All() {
				if (bench.Class == "gpu") == (platform == "mi250x") {
					benchPost(b, h, fmt.Sprintf(`{"benchmark":%q,"platform":%q}`, bench.Name, platform))
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchDo(b, h, http.MethodPost, "/v1/events/validate", fmt.Sprintf(
					`{"platform":%q,"tolerances":{"noisy_tau":%g,"fit_tol":0.05,"scale_tol":0.01,"derived_cos":0.5}}`,
					platform, 0.1*(1+float64(i+1)*1e-9)))
			}
		})
	}
}
