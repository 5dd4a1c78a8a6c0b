package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"github.com/perfmetrics/eventlens/internal/machine"
	"github.com/perfmetrics/eventlens/internal/validate"
)

// validateBody builds a /v1/events/validate payload.
func validateBody(platform string, benches []string, extra string) string {
	b := fmt.Sprintf(`{"platform":%q`, platform)
	if len(benches) > 0 {
		data, _ := json.Marshal(benches)
		b += `,"benchmarks":` + string(data)
	}
	if extra != "" {
		b += "," + extra
	}
	return b + "}"
}

// TestValidatePlatformDir: validation reads the daemon's registry, so it
// serves every platform the daemon serves. A dir-loaded platform validates
// to the CLI's bytes for the same dir, and an overridden built-in validates
// its overriding definition.
func TestValidatePlatformDir(t *testing.T) {
	dir := overrideDir(t)
	h := newTestServer(t, Config{PlatformDir: dir}).Handler()
	w := postJSON(t, h, "/v1/events/validate", validateBody("custom", nil, ""))
	if w.Code != http.StatusOK {
		t.Fatalf("validate custom: %d %s", w.Code, w.Body)
	}
	reg, err := machine.NewRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	report, err := validate.RunIn(context.Background(), reg, validate.Request{Platform: "custom"})
	if err != nil {
		t.Fatal(err)
	}
	if want := validate.NewEnvelope(report).CanonicalJSON(); !bytes.Equal(w.Body.Bytes(), want) {
		t.Fatalf("dir-loaded platform: API response differs from the CLI envelope:\n--- api\n%s\n--- cli\n%s", w.Body.Bytes(), want)
	}

	body := validateBody("spr", []string{"cpu-flops"}, "")
	over := postJSON(t, h, "/v1/events/validate", body)
	builtin := postJSON(t, newTestServer(t, Config{}).Handler(), "/v1/events/validate", body)
	if over.Code != http.StatusOK || builtin.Code != http.StatusOK {
		t.Fatalf("validate spr: %d, %d", over.Code, builtin.Code)
	}
	if bytes.Equal(over.Body.Bytes(), builtin.Body.Bytes()) {
		t.Fatal("an overridden spr-sim validated to the built-in definition's bytes")
	}
}

// TestValidateEndpoint pins the endpoint's contract: the response is the
// canonical envelope — byte-identical to `validate -json` for the same
// request — cached under the worker-independent key, and counted.
func TestValidateEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	body := validateBody("spr", []string{"branch"}, "")

	w := postJSON(t, h, "/v1/events/validate", body)
	if w.Code != http.StatusOK {
		t.Fatalf("validate: %d %s", w.Code, w.Body)
	}
	if got := w.Header().Get("X-Eventlens-Cache"); got != "miss" {
		t.Fatalf("first request cache header = %q, want \"miss\"", got)
	}

	// The CLI's -json output is NewEnvelope(RunIn(registry, req))
	// .CanonicalJSON(); the endpoint must serve those exact bytes.
	reg, err := machine.NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	report, err := validate.RunIn(context.Background(), reg, validate.Request{Platform: "spr", Benchmarks: []string{"branch"}})
	if err != nil {
		t.Fatal(err)
	}
	if want := validate.NewEnvelope(report).CanonicalJSON(); !bytes.Equal(w.Body.Bytes(), want) {
		t.Fatalf("API response differs from the CLI envelope:\n--- api\n%s\n--- cli\n%s", w.Body.Bytes(), want)
	}

	// Second request: an exact cache hit, same bytes.
	w2 := postJSON(t, h, "/v1/events/validate", body)
	if got := w2.Header().Get("X-Eventlens-Cache"); got != "hit" {
		t.Fatalf("second request cache header = %q, want \"hit\"", got)
	}
	if !bytes.Equal(w.Body.Bytes(), w2.Body.Bytes()) {
		t.Fatal("cache hit served different bytes")
	}

	// Worker count is excluded from the key (it cannot change a byte), so a
	// request differing only in workers is still a hit.
	w3 := postJSON(t, h, "/v1/events/validate", validateBody("spr", []string{"branch"}, `"workers":8`))
	if got := w3.Header().Get("X-Eventlens-Cache"); got != "hit" {
		t.Fatalf("workers=8 cache header = %q, want \"hit\"", got)
	}
	if !bytes.Equal(w.Body.Bytes(), w3.Body.Bytes()) {
		t.Fatal("worker count changed the served bytes")
	}

	if got := s.validateRuns.Value(); got != 1 {
		t.Fatalf("validate runs = %d, want 1", got)
	}
	text := metricsText(t, h)
	if !strings.Contains(text, "eventlensd_validate_runs_total 1") {
		t.Fatalf("validate runs not exported:\n%s", grepLines(text, "validate"))
	}
	if !strings.Contains(text, `eventlensd_validate_verdicts_total{verdict="valid"}`) {
		t.Fatalf("verdict counters not exported:\n%s", grepLines(text, "validate"))
	}
}

// TestValidateWorkersByteIdenticalComputed forces two actual computations
// (fresh servers, so no cache can hide a divergence) at different worker
// counts and compares the bytes.
func TestValidateWorkersByteIdenticalComputed(t *testing.T) {
	serial := postJSON(t, newTestServer(t, Config{}).Handler(), "/v1/events/validate",
		validateBody("spr", []string{"branch"}, `"workers":1`))
	parallel := postJSON(t, newTestServer(t, Config{}).Handler(), "/v1/events/validate",
		validateBody("spr", []string{"branch"}, `"workers":8`))
	if serial.Code != http.StatusOK || parallel.Code != http.StatusOK {
		t.Fatalf("status %d / %d", serial.Code, parallel.Code)
	}
	if !bytes.Equal(serial.Body.Bytes(), parallel.Body.Bytes()) {
		t.Fatal("worker count changed the computed validation bytes")
	}
}

func TestValidateBadRequests(t *testing.T) {
	h := newTestServer(t, Config{}).Handler()
	// Malformed JSON, trailing garbage, unknown fields: client errors.
	decodeEnvelope(t, postJSON(t, h, "/v1/events/validate", `{"platform":`), http.StatusBadRequest)
	decodeEnvelope(t, postJSON(t, h, "/v1/events/validate", `{"platform":"spr"} trailing`), http.StatusBadRequest)
	decodeEnvelope(t, postJSON(t, h, "/v1/events/validate", `{"platform":"spr","bogus":1}`), http.StatusBadRequest)
	// Requests the validator itself rejects are 400s, not 500s.
	decodeEnvelope(t, postJSON(t, h, "/v1/events/validate", `{"platform":"nope"}`), http.StatusBadRequest)
	decodeEnvelope(t, postJSON(t, h, "/v1/events/validate", validateBody("spr", []string{"gpu-flops"}, "")), http.StatusBadRequest)
	decodeEnvelope(t, postJSON(t, h, "/v1/events/validate", validateBody("spr", nil, `"workers":-1`)), http.StatusBadRequest)
	decodeEnvelope(t, postJSON(t, h, "/v1/events/validate", validateBody("spr", nil, `"faults":"wat"`)), http.StatusBadRequest)
}

// TestValidateDegradesUnderFaults is the chaos lane of the endpoint: with
// measurement-layer fault injection the response is a 200 partial trust
// report listing the lost benchmarks and dropped events — never a 500 — and
// a validation losing every benchmark is the daemon degrading (503).
func TestValidateDegradesUnderFaults(t *testing.T) {
	h := newTestServer(t, Config{}).Handler()

	w := postJSON(t, h, "/v1/events/validate", validateBody("spr", nil, `"faults":"seed=3,transient=0.5,retries=0"`))
	if w.Code != http.StatusOK {
		t.Fatalf("partial injection: %d %s", w.Code, w.Body)
	}
	var env struct {
		validate.Report
		Text string `json:"report"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if len(env.Degraded) == 0 || len(env.Dropped) == 0 {
		t.Fatalf("degraded report lists %d lost benchmarks, %d dropped events; want both > 0",
			len(env.Degraded), len(env.Dropped))
	}
	if len(env.Events) == 0 {
		t.Fatal("degraded report carries no surviving verdicts")
	}
	if !strings.Contains(env.Text, "degraded benchmarks") {
		t.Fatal("text report omits the degraded section")
	}

	// Injection sinking every benchmark: service unavailable, never a 500.
	w = postJSON(t, h, "/v1/events/validate", validateBody("spr", nil, `"faults":"seed=3,transient=1.0,retries=0"`))
	decodeEnvelope(t, w, http.StatusServiceUnavailable)
}

// TestValidateUnderHTTPChaos hammers the endpoint concurrently through the
// daemon's own chaos middleware: every response is a well-formed success or
// an injected, retryable rejection — never a 500 — and the surviving
// successes are byte-identical.
func TestValidateUnderHTTPChaos(t *testing.T) {
	s := newTestServer(t, Config{Chaos: "seed=11,http503=0.4"})
	h := s.Handler()
	body := validateBody("spr", []string{"branch"}, "")

	const n = 8
	codes := make([]int, n)
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := postJSON(t, h, "/v1/events/validate", body)
			codes[i] = w.Code
			bodies[i] = append([]byte(nil), w.Body.Bytes()...)
		}(i)
	}
	wg.Wait()

	var ok []byte
	injected := 0
	for i, code := range codes {
		switch code {
		case http.StatusOK:
			if ok == nil {
				ok = bodies[i]
			} else if !bytes.Equal(ok, bodies[i]) {
				t.Fatal("successful responses under chaos differ")
			}
		case http.StatusServiceUnavailable, http.StatusGatewayTimeout, http.StatusTooManyRequests:
			injected++
		default:
			t.Fatalf("request %d: status %d (body %s)", i, code, bodies[i])
		}
	}
	if ok == nil {
		t.Fatal("chaos rejected every request at rate 0.4; seed produced no survivors")
	}
	if injected == 0 {
		t.Fatal("chaos injected nothing at rate 0.4 across 8 requests")
	}
}

// TestValidateStoreWarmRestart: validations persist like analyses. A fresh
// daemon on the same store directory serves the stored envelope bytes with
// zero recomputation.
func TestValidateStoreWarmRestart(t *testing.T) {
	dir := t.TempDir()
	body := validateBody("spr", []string{"branch"}, "")

	s1 := newTestServer(t, Config{StoreDir: dir})
	w1 := postJSON(t, s1.Handler(), "/v1/events/validate", body)
	if w1.Code != http.StatusOK {
		t.Fatalf("seed validate: %d %s", w1.Code, w1.Body)
	}
	if got := s1.storeWrites.Value(); got != 1 {
		t.Fatalf("store writes = %d, want 1", got)
	}

	s2 := newTestServer(t, Config{StoreDir: dir})
	w2 := postJSON(t, s2.Handler(), "/v1/events/validate", body)
	if w2.Code != http.StatusOK {
		t.Fatalf("warm validate: %d %s", w2.Code, w2.Body)
	}
	if got := w2.Header().Get("X-Eventlens-Cache"); got != "disk" {
		t.Fatalf("cache header = %q, want \"disk\"", got)
	}
	if !bytes.Equal(w1.Body.Bytes(), w2.Body.Bytes()) {
		t.Fatal("disk-served validation differs from the computed one")
	}
	if got := s2.validateRuns.Value(); got != 0 {
		t.Fatalf("warm restart ran %d validations, want 0", got)
	}
}

// TestValidateSharded routes a validation through a 2-replica tier: the
// response must be byte-identical to single-process serving whichever
// replica owns the key, and exactly one replica computes it.
func TestValidateSharded(t *testing.T) {
	reps := startCluster(t, 2, "")
	entry := reps[0]
	body := validateBody("spr", []string{"branch"}, "")

	ref := postJSON(t, newTestServer(t, Config{}).Handler(), "/v1/events/validate", body)
	if ref.Code != http.StatusOK {
		t.Fatalf("reference validate: %d %s", ref.Code, ref.Body)
	}

	resp, err := http.Post(entry.url+"/v1/events/validate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sharded validate: %d %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, ref.Body.Bytes()) {
		t.Fatal("sharded validation differs from single-process serving")
	}

	ep, err := entry.srv.validateEndpoint(validate.Request{Platform: "spr", Benchmarks: []string{"branch"}})
	if err != nil {
		t.Fatal(err)
	}
	owner := entry.srv.ring.Owners(ep.key, 1)[0]
	if servedBy := resp.Header.Get(servedByHeader); owner != entry.url && servedBy != owner {
		t.Fatalf("key owned by %q served by %q", owner, servedBy)
	}
	var runs uint64
	for _, r := range reps {
		runs += r.srv.validateRuns.Value()
	}
	if runs != 1 {
		t.Fatalf("cluster ran %d validations, want exactly 1 (on the owner)", runs)
	}
}
