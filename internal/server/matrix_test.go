package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/perfmetrics/eventlens/internal/analysis"
	"github.com/perfmetrics/eventlens/internal/machine"
	"github.com/perfmetrics/eventlens/internal/matrix"
	"github.com/perfmetrics/eventlens/internal/platdef"
)

// TestMatrixEndpoint pins the endpoint's contract: the response is the
// canonical matrix envelope — byte-identical to the matrix package's own
// rendering for the same request — cached under the worker-independent key,
// and counted.
func TestMatrixEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	body := `{"platforms":["spr","graviton"],"benchmarks":["branch"]}`

	w := postJSON(t, h, "/v1/matrix", body)
	if w.Code != http.StatusOK {
		t.Fatalf("matrix: %d %s", w.Code, w.Body)
	}
	if got := w.Header().Get("X-Eventlens-Cache"); got != "miss" {
		t.Fatalf("first request cache header = %q, want \"miss\"", got)
	}

	// The daemon must serve the package's canonical envelope bytes exactly.
	reg, err := machine.NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	report, err := matrix.Run(context.Background(), reg,
		matrix.Request{Platforms: []string{"spr", "graviton"}, Benchmarks: []string{"branch"}})
	if err != nil {
		t.Fatal(err)
	}
	if want := mustEncode(t, matrix.NewEnvelope(report)); !bytes.Equal(w.Body.Bytes(), want) {
		t.Fatalf("API response differs from the canonical envelope:\n--- api\n%s\n--- canonical\n%s",
			w.Body.Bytes(), want)
	}

	// Second request: an exact cache hit, same bytes.
	w2 := postJSON(t, h, "/v1/matrix", body)
	if got := w2.Header().Get("X-Eventlens-Cache"); got != "hit" {
		t.Fatalf("second request cache header = %q, want \"hit\"", got)
	}
	if !bytes.Equal(w.Body.Bytes(), w2.Body.Bytes()) {
		t.Fatal("cache hit served different bytes")
	}

	// Platform aliases and worker counts cannot split the key: a request
	// differing only in those is still a hit with the same bytes.
	w3 := postJSON(t, h, "/v1/matrix",
		`{"platforms":["graviton-sim","spr-sim"],"benchmarks":["branch"],"workers":8}`)
	if got := w3.Header().Get("X-Eventlens-Cache"); got != "hit" {
		t.Fatalf("aliased request cache header = %q, want \"hit\"", got)
	}
	if !bytes.Equal(w.Body.Bytes(), w3.Body.Bytes()) {
		t.Fatal("aliases or worker count changed the served bytes")
	}

	if got := s.matrixRuns.Value(); got != 1 {
		t.Fatalf("matrix runs = %d, want 1", got)
	}
	text := metricsText(t, h)
	if !strings.Contains(text, "eventlensd_matrix_runs_total 1") {
		t.Fatalf("matrix runs not exported:\n%s", grepLines(text, "matrix"))
	}
	if s.matrixCells.Value() == 0 || !strings.Contains(text, "eventlensd_matrix_cells_total") {
		t.Fatalf("matrix cells not exported:\n%s", grepLines(text, "matrix"))
	}
}

// TestMatrixWorkersByteIdenticalComputed forces two actual computations
// (fresh servers, so no cache can hide a divergence) at different worker
// counts and compares the bytes.
func TestMatrixWorkersByteIdenticalComputed(t *testing.T) {
	serial := postJSON(t, newTestServer(t, Config{}).Handler(), "/v1/matrix",
		`{"platforms":["graviton"],"benchmarks":["branch"],"workers":1}`)
	parallel := postJSON(t, newTestServer(t, Config{}).Handler(), "/v1/matrix",
		`{"platforms":["graviton"],"benchmarks":["branch"],"workers":8}`)
	if serial.Code != http.StatusOK || parallel.Code != http.StatusOK {
		t.Fatalf("status %d / %d", serial.Code, parallel.Code)
	}
	if !bytes.Equal(serial.Body.Bytes(), parallel.Body.Bytes()) {
		t.Fatal("worker count changed the computed matrix bytes")
	}
}

func TestMatrixBadRequests(t *testing.T) {
	h := newTestServer(t, Config{}).Handler()
	// Malformed JSON, trailing garbage, unknown fields: client errors.
	decodeEnvelope(t, postJSON(t, h, "/v1/matrix", `{"platforms":`), http.StatusBadRequest)
	decodeEnvelope(t, postJSON(t, h, "/v1/matrix", `{} trailing`), http.StatusBadRequest)
	decodeEnvelope(t, postJSON(t, h, "/v1/matrix", `{"bogus":1}`), http.StatusBadRequest)
	// Requests the matrix itself rejects are 400s, not 500s.
	decodeEnvelope(t, postJSON(t, h, "/v1/matrix", `{"platforms":["m2max"]}`), http.StatusBadRequest)
	decodeEnvelope(t, postJSON(t, h, "/v1/matrix", `{"benchmarks":["nope"]}`), http.StatusBadRequest)
	// A benchmark whose class no requested platform can drive is a 400: the
	// request could never produce a cell for it.
	decodeEnvelope(t, postJSON(t, h, "/v1/matrix",
		`{"platforms":["mi250x"],"benchmarks":["branch"]}`), http.StatusBadRequest)
	decodeEnvelope(t, postJSON(t, h, "/v1/matrix", `{"workers":-1}`), http.StatusBadRequest)
	decodeEnvelope(t, postJSON(t, h, "/v1/matrix", `{"threshold":-1e-6}`), http.StatusBadRequest)
	decodeEnvelope(t, postJSON(t, h, "/v1/matrix", `{"faults":"wat"}`), http.StatusBadRequest)
}

// TestMatrixDegradesUnderFaults is the chaos lane of the endpoint: with
// measurement-layer fault injection the response is a 200 partial matrix
// listing the lost pairs — never a 500 — and a matrix losing every pair is
// the daemon degrading (503).
func TestMatrixDegradesUnderFaults(t *testing.T) {
	h := newTestServer(t, Config{}).Handler()

	w := postJSON(t, h, "/v1/matrix",
		`{"platforms":["spr","graviton"],"benchmarks":["branch","cpu-flops"],"faults":"seed=3,transient=0.1,retries=0"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("partial injection: %d %s", w.Code, w.Body)
	}
	var env struct {
		matrix.Report
		Text string `json:"matrix"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if len(env.Degraded) == 0 {
		t.Fatal("degraded matrix lists no lost pairs")
	}
	if len(env.Cells) == 0 {
		t.Fatal("degraded matrix carries no surviving cells")
	}
	if !strings.Contains(env.Text, "degraded pairs") {
		t.Fatal("text matrix omits the degraded section")
	}

	// Injection sinking every pair: service unavailable, never a 500.
	w = postJSON(t, h, "/v1/matrix",
		`{"platforms":["graviton"],"benchmarks":["branch"],"faults":"seed=3,transient=1.0,retries=0"}`)
	decodeEnvelope(t, w, http.StatusServiceUnavailable)
}

// TestMatrixUnderHTTPChaos hammers the endpoint concurrently through the
// daemon's own chaos middleware: every response is a well-formed success or
// an injected, retryable rejection — never a 500 — and the surviving
// successes are byte-identical.
func TestMatrixUnderHTTPChaos(t *testing.T) {
	s := newTestServer(t, Config{Chaos: "seed=11,http503=0.4"})
	h := s.Handler()
	body := `{"platforms":["graviton"],"benchmarks":["branch"]}`

	const n = 8
	codes := make([]int, n)
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := postJSON(t, h, "/v1/matrix", body)
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

// TestMatrixStoreWarmRestart: matrices persist like analyses and
// validations. A fresh daemon on the same store directory serves the stored
// envelope bytes with zero recomputation.
func TestMatrixStoreWarmRestart(t *testing.T) {
	dir := t.TempDir()
	body := `{"platforms":["graviton"],"benchmarks":["branch"]}`

	s1 := newTestServer(t, Config{StoreDir: dir})
	w1 := postJSON(t, s1.Handler(), "/v1/matrix", body)
	if w1.Code != http.StatusOK {
		t.Fatalf("seed matrix: %d %s", w1.Code, w1.Body)
	}
	if got := s1.storeWrites.Value(); got != 1 {
		t.Fatalf("store writes = %d, want 1", got)
	}

	s2 := newTestServer(t, Config{StoreDir: dir})
	w2 := postJSON(t, s2.Handler(), "/v1/matrix", body)
	if w2.Code != http.StatusOK {
		t.Fatalf("warm matrix: %d %s", w2.Code, w2.Body)
	}
	if got := w2.Header().Get("X-Eventlens-Cache"); got != "disk" {
		t.Fatalf("cache header = %q, want \"disk\"", got)
	}
	if !bytes.Equal(w1.Body.Bytes(), w2.Body.Bytes()) {
		t.Fatal("disk-served matrix differs from the computed one")
	}
	if got := s2.matrixRuns.Value(); got != 0 {
		t.Fatalf("warm restart ran %d matrices, want 0", got)
	}
}

// TestMatrixSharded routes a matrix through a 2-replica tier: the response
// must be byte-identical to single-process serving whichever replica owns
// the key, and exactly one replica computes it.
func TestMatrixSharded(t *testing.T) {
	reps := startCluster(t, 2, "")
	entry := reps[0]
	body := `{"platforms":["graviton"],"benchmarks":["branch"]}`

	ref := postJSON(t, newTestServer(t, Config{}).Handler(), "/v1/matrix", body)
	if ref.Code != http.StatusOK {
		t.Fatalf("reference matrix: %d %s", ref.Code, ref.Body)
	}

	resp, err := http.Post(entry.url+"/v1/matrix", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sharded matrix: %d %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, ref.Body.Bytes()) {
		t.Fatal("sharded matrix differs from single-process serving")
	}

	ep, err := entry.srv.matrixEndpoint(matrix.Request{
		Platforms: []string{"graviton"}, Benchmarks: []string{"branch"}})
	if err != nil {
		t.Fatal(err)
	}
	owner := entry.srv.ring.Owners(ep.key, 1)[0]
	if servedBy := resp.Header.Get(servedByHeader); owner != entry.url && servedBy != owner {
		t.Fatalf("key owned by %q served by %q", owner, servedBy)
	}
	var runs uint64
	for _, r := range reps {
		runs += r.srv.matrixRuns.Value()
	}
	if runs != 1 {
		t.Fatalf("cluster ran %d matrices, want exactly 1 (on the owner)", runs)
	}
}

// TestMatrixPlatformDir: a platform dropped into Config.PlatformDir appears
// in /v1/platforms and participates in /v1/matrix without any code change —
// the file-drop contract of the platdef format.
func TestMatrixPlatformDir(t *testing.T) {
	raw, err := platdef.BuiltinBytes("zen4-sim")
	if err != nil {
		t.Fatal(err)
	}
	custom := bytes.Replace(raw, []byte("platform zen4-sim"), []byte("platform custom-sim"), 1)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "custom-sim.pdef"), custom, 0o644); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, Config{PlatformDir: dir})
	h := s.Handler()

	w := get(t, h, "/v1/platforms")
	if w.Code != http.StatusOK {
		t.Fatalf("platforms: %d", w.Code)
	}
	if !strings.Contains(w.Body.String(), `"custom-sim"`) {
		t.Fatalf("platforms missing the loaded definition: %s", w.Body)
	}
	if !strings.Contains(w.Body.String(), `"class"`) {
		t.Fatalf("platforms omit the class field: %s", w.Body)
	}

	w = postJSON(t, h, "/v1/matrix", `{"platforms":["custom"],"benchmarks":["branch"]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("matrix over loaded platform: %d %s", w.Code, w.Body)
	}
	var env struct {
		matrix.Report
		Text string `json:"matrix"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if len(env.Cells) == 0 || env.Cells[0].Platform != "custom-sim" {
		t.Fatalf("matrix cells do not cover the loaded platform: %+v", env.Cells)
	}

	// A directory with a broken definition fails construction loudly.
	bad := t.TempDir()
	if err := os.WriteFile(filepath.Join(bad, "bad.pdef"), []byte("not a platdef\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{PlatformDir: bad}); err == nil {
		t.Fatal("New accepted a platform dir with an unparsable definition")
	}
	// So does a parseable one whose respond or doc term names a stat key no
	// simulator populates: accepted, every request that collected on it
	// would fail.
	for _, line := range []string{"respond", "doc"} {
		unknown := bytes.Replace(custom, []byte("\n"+line+" cpu.fp.dp.scalar=1 "), []byte("\n"+line+" cpu.fp.bogus=1 "), 1)
		if bytes.Equal(unknown, custom) {
			t.Fatalf("no %s line to rewrite", line)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "custom-sim.pdef"), unknown, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := New(Config{PlatformDir: dir}); err == nil || !strings.Contains(err.Error(), `unknown stat key "cpu.fp.bogus"`) {
			t.Fatalf("%s term over an unknown key: New err = %v", line, err)
		}
	}
	// And so does one named with a built-in's short name: accepted, "spr"
	// would read it while "spr-sim" read the built-in.
	shadow := t.TempDir()
	spr := bytes.Replace(raw, []byte("platform zen4-sim"), []byte("platform spr"), 1)
	if err := os.WriteFile(filepath.Join(shadow, "spr.pdef"), spr, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{PlatformDir: shadow}); err == nil || !strings.Contains(err.Error(), "platform spr collides with platform spr-sim") {
		t.Fatalf("a definition named with spr-sim's short name: New err = %v", err)
	}
}

// TestMatrixCellIsItsAnalysis: each matrix cell is the analysis of its
// (benchmark, platform) — the cell's backward error, composable verdict at
// the default threshold and rank equal the metric's backward error and
// verdict and the number of selected events in /v1/analyze on that
// platform.
func TestMatrixCellIsItsAnalysis(t *testing.T) {
	h := newTestServer(t, Config{}).Handler()
	w := postJSON(t, h, "/v1/matrix", `{"platforms":["spr","graviton"],"benchmarks":["branch","cpu-flops"]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("matrix: %d %s", w.Code, w.Body)
	}
	var env matrix.Envelope
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	analyses := map[[2]string]analysis.Response{}
	for _, c := range env.Cells {
		pair := [2]string{c.Benchmark, c.Platform}
		a, ok := analyses[pair]
		if !ok {
			wa := postJSON(t, h, "/v1/analyze", fmt.Sprintf(`{"benchmark":%q,"platform":%q}`, c.Benchmark, c.Platform))
			if wa.Code != http.StatusOK {
				t.Fatalf("analyze %v: %d %s", pair, wa.Code, wa.Body)
			}
			if err := json.Unmarshal(wa.Body.Bytes(), &a); err != nil {
				t.Fatal(err)
			}
			analyses[pair] = a
		}
		found := false
		for _, m := range a.Metrics {
			if m.Metric != c.Metric {
				continue
			}
			found = true
			if m.BackwardError != c.BackwardError || m.Composable != c.Composable || len(a.SelectedEvents) != c.Rank {
				t.Errorf("%v %s: cell (error %g, composable %v, rank %d), analysis (error %g, composable %v, rank %d)",
					pair, c.Metric, c.BackwardError, c.Composable, c.Rank, m.BackwardError, m.Composable, len(a.SelectedEvents))
			}
		}
		if !found {
			t.Errorf("%v: metric %s missing from the analysis", pair, c.Metric)
		}
	}
	if len(analyses) != 4 || len(env.Cells) == 0 {
		t.Fatalf("compared %d cells over %d pairs, want 4 pairs", len(env.Cells), len(analyses))
	}
}
