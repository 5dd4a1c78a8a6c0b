package server

import (
	"github.com/perfmetrics/eventlens/internal/analysis"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// describeBody runs one request body through the decode and describe steps
// of handleLadder — everything a POST endpoint does before the ladder — and
// returns the first error. Nothing is computed.
func describeBody[R any](s *Server, body string, describe func(R) (endpoint, error)) error {
	r := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(body))
	r.Body = http.MaxBytesReader(httptest.NewRecorder(), r.Body, s.cfg.MaxBodyBytes)
	var req R
	if err := decodeJSON(r, &req); err != nil {
		return err
	}
	_, err := describe(req)
	return err
}

// FuzzLadderRequest is the hostile-decoder check of every POST descriptor:
// arbitrary bodies through decodeJSON and the analyze, validate, matrix,
// define and explain descriptors must never panic, and every rejection must
// be a client error (4xx) — a request that cannot be served is never a 500.
func FuzzLadderRequest(f *testing.F) {
	for _, body := range []string{
		`{"benchmark":"cpu-flops"}`,
		`{"benchmark":"nope"}`,
		`{"benchmark":`,
		``,
		`{}`,
		`{"benchmark":"cpu-flops"} trailing`,
		`{"benchmark":"cpu-flops","bogus":1}`,
		`{"benchmark":"cpu-flops","run":{"reps":0,"threads":1}}`,
		`{"benchmark":"cpu-flops","config":{"tau":1e-10,"alpha":0,"projection_tol":0.01,"round_tol":0.05}}`,
		`{"benchmark":"cpu-flops","config":{"tau":1e-10,"alpha":5e-4,"projection_tol":0.01,"round_tol":0.05}}`,
		`{"benchmark":"cpu-flops","metric":"DP Ops."}`,
		`{"benchmark":"cpu-flops","metric":"No Such Metric."}`,
		`{"benchmark":"cpu-flops","metric":"DP Ops.","signature":{"name":"x","coeffs":[1]}}`,
		`{"benchmark":"cpu-flops","signature":{"name":"short","coeffs":[1,2]}}`,
		`{"benchmark":"branch","signature":{"name":"Taken","coeffs":[0,0,1,0,0]}}`,
		`{"benchmark":"branch","signature":{"name":"","coeffs":[0,0,1,0,0]}}`,
		`{"benchmark":"branch"}`,
		`{"benchmark":"branch","event":"BR_INST_RETIRED:ALL_BRANCHES"}`,
		`{"benchmark":"branch","event":"NO_SUCH_EVENT"}`,
		`{"benchmark":"branch","platform":"nope"}`,
		`{"benchmark":"branch","platform":"mi250x"}`,
		`{"benchmark":"branch","platform":""}`,
		`{"benchmark":"branch","platform":"graviton"}`,
		`{"benchmark":"branch","platform":"graviton","event":"BR_INST_RETIRED:ALL_BRANCHES"}`,
		`{"platform":"spr","benchmarks":["branch"]}`,
		`{"platform":`,
		`{"platform":"spr"} trailing`,
		`{"platform":"spr","bogus":1}`,
		`{"platform":"nope"}`,
		`{"platform":"spr","benchmarks":["gpu-flops"]}`,
		`{"platform":"spr","workers":-1}`,
		`{"platform":"spr","faults":"wat"}`,
		`{"platforms":["spr","graviton"],"benchmarks":["branch"]}`,
		`{"platforms":["zen4"],"benchmarks":["branch"]}`,
		`{"platforms":`,
		`{} trailing`,
		`{"bogus":1}`,
		`{"platforms":["m2max"]}`,
		`{"benchmarks":["nope"]}`,
		`{"platforms":["mi250x"],"benchmarks":["branch"]}`,
		`{"workers":-1}`,
		`{"threshold":-1e-6}`,
		`{"faults":"wat"}`,
		`{"benchmark":"cpu-flops"}}`,
		`{"benchmark":"cpu-flops"}]`,
	} {
		f.Add(body)
	}
	s := newTestServer(f, Config{})
	f.Fuzz(func(t *testing.T, body string) {
		for _, c := range []struct {
			name string
			err  error
		}{
			{"analyze", describeBody(s, body, analysisEndpoint[analysis.Request](s, ""))},
			{"validate", describeBody(s, body, s.validateEndpoint)},
			{"matrix", describeBody(s, body, s.matrixEndpoint)},
			{"define", describeBody(s, body, analysisEndpoint[analysis.DefineRequest](s, "define|"))},
			{"explain", describeBody(s, body, analysisEndpoint[analysis.ExplainRequest](s, "explain|"))},
		} {
			if c.err == nil {
				continue
			}
			if code := errStatus(c.err); code < 400 || code > 499 {
				t.Fatalf("%s: body %q rejected with %d: %v", c.name, body, code, c.err)
			}
		}
	})
}
