package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"github.com/perfmetrics/eventlens/internal/analysis"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/perfmetrics/eventlens/internal/core"
)

// taurq builds an analyze request whose tau offset gives it a distinct
// cache/store/shard key without changing the numerical outcome (the offsets
// sit far below the benchmark's noise floor).
func taurq(i int) analysis.Request {
	cfg := core.Config{Tau: 1e-10 + float64(i)*1e-13, Alpha: 5e-4, ProjectionTol: 0.01, RoundTol: 0.05}
	return analysis.Request{Benchmark: "cpu-flops", Config: &cfg}
}

// keyOf resolves a request through a server exactly as the serving path
// does and returns its canonical analysis key.
func keyOf(t *testing.T, s *Server, req analysis.Request) string {
	t.Helper()
	key, err := req.Key(s.platforms)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

func marshalReq(t *testing.T, req any) string {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestStoreWarmRestart is the restart-warm acceptance path: analyze and
// define, shut the daemon down gracefully (the SIGTERM path), start a fresh
// daemon against the same store directory, and the same requests are served
// from disk — byte-identical, with zero new collection passes.
func TestStoreWarmRestart(t *testing.T) {
	dir := t.TempDir()
	body := `{"benchmark":"cpu-flops"}`
	defineBody := `{"benchmark":"cpu-flops","metric":"DP Ops."}`

	s1 := newTestServer(t, Config{Addr: "127.0.0.1:0", StoreDir: dir, ShutdownTimeout: 5 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- s1.Run(ctx) }()
	addr, err := s1.WaitAddr(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	post := func(path, body string) []byte {
		t.Helper()
		resp, err := http.Post("http://"+addr.String()+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %v", path, resp.StatusCode, err)
		}
		return data
	}
	first := post("/v1/analyze", body)
	if got := s1.collections.Value(); got != 1 {
		t.Fatalf("collections after first analyze = %d, want 1", got)
	}
	if got := s1.storeWrites.Value(); got != 1 {
		t.Fatalf("store writes = %d, want 1", got)
	}
	firstDefine := post("/v1/metrics/define", defineBody)
	if got := s1.storeWrites.Value(); got != 2 {
		t.Fatalf("store writes after define = %d, want 2", got)
	}
	cancel() // what SIGTERM triggers via signal.NotifyContext
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown did not complete")
	}

	// Fresh process, same store directory: the responses come from disk.
	s2 := newTestServer(t, Config{StoreDir: dir})
	h := s2.Handler()
	w := postJSON(t, h, "/v1/analyze", body)
	if w.Code != http.StatusOK {
		t.Fatalf("warm analyze: %d %s", w.Code, w.Body)
	}
	if got := w.Header().Get("X-Eventlens-Cache"); got != "disk" {
		t.Fatalf("cache header = %q, want \"disk\"", got)
	}
	if !bytes.Equal(first, w.Body.Bytes()) {
		t.Fatal("disk-served response differs from the computed one")
	}

	// The warmed entry lives in memory now; the next request is a plain hit.
	w2 := postJSON(t, h, "/v1/analyze", body)
	if got := w2.Header().Get("X-Eventlens-Cache"); got != "hit" {
		t.Fatalf("second warm request header = %q, want \"hit\"", got)
	}

	// The define response was persisted too and is served from disk as-is.
	wd := postJSON(t, h, "/v1/metrics/define", defineBody)
	if wd.Code != http.StatusOK {
		t.Fatalf("warm define: %d %s", wd.Code, wd.Body)
	}
	if got := wd.Header().Get("X-Eventlens-Cache"); got != "disk" {
		t.Fatalf("define cache header = %q, want \"disk\"", got)
	}
	if !bytes.Equal(firstDefine, wd.Body.Bytes()) {
		t.Fatal("disk-served define differs from the computed one")
	}
	if got := s2.collections.Value(); got != 0 {
		t.Fatalf("warm restart ran %d collection passes, want 0", got)
	}
	if got := s2.pipelineRuns.Value(); got != 0 {
		t.Fatalf("warm restart ran the pipeline %d times, want 0", got)
	}
	text := metricsText(t, h)
	if !strings.Contains(text, "eventlensd_store_hits_total 2") {
		t.Fatalf("store hits not counted:\n%s", grepLines(text, "store_"))
	}
	if !strings.Contains(text, "eventlensd_store_entries 2") {
		t.Fatalf("store entries gauge wrong:\n%s", grepLines(text, "store_"))
	}
}

// TestStoreCorruptionDegradesAtServer corrupts persisted entries on disk in
// both ways the store can detect — truncation and flipped payload bytes —
// and expects the daemon to treat each as a miss: recompute, re-publish,
// serve bytes identical to the clean run, and count the corruption.
func TestStoreCorruptionDegradesAtServer(t *testing.T) {
	dir := t.TempDir()
	body := `{"benchmark":"branch"}`
	s1 := newTestServer(t, Config{StoreDir: dir})
	w := postJSON(t, s1.Handler(), "/v1/analyze", body)
	if w.Code != http.StatusOK {
		t.Fatalf("seed analyze: %d %s", w.Code, w.Body)
	}
	clean := append([]byte(nil), w.Body.Bytes()...)

	entries, err := filepath.Glob(filepath.Join(dir, "*.evs"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("entries = %v, err = %v", entries, err)
	}
	raw, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}

	for name, mutate := range map[string][]byte{
		"truncated": raw[:len(raw)/2],
		"bitflip":   flipLastByte(raw),
	} {
		if err := os.WriteFile(entries[0], mutate, 0o644); err != nil {
			t.Fatal(err)
		}
		s2 := newTestServer(t, Config{StoreDir: dir})
		w := postJSON(t, s2.Handler(), "/v1/analyze", body)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: analyze after corruption: %d %s", name, w.Code, w.Body)
		}
		if got := w.Header().Get("X-Eventlens-Cache"); got != "miss" {
			t.Fatalf("%s: cache header = %q, want \"miss\"", name, got)
		}
		if !bytes.Equal(clean, w.Body.Bytes()) {
			t.Fatalf("%s: recomputed response differs from clean run", name)
		}
		if got := s2.storeCorrupt.Value(); got != 1 {
			t.Fatalf("%s: corrupt counter = %d, want 1", name, got)
		}
		// The recompute re-published a good entry; verify before next round.
		s3 := newTestServer(t, Config{StoreDir: dir})
		w3 := postJSON(t, s3.Handler(), "/v1/analyze", body)
		if got := w3.Header().Get("X-Eventlens-Cache"); got != "disk" {
			t.Fatalf("%s: entry not healed, header = %q", name, got)
		}
	}
}

func flipLastByte(raw []byte) []byte {
	out := append([]byte(nil), raw...)
	out[len(out)-1] ^= 0xff
	return out
}

// TestBatchingOneCollectionManyConfigs is the measurement-set batching
// acceptance check: K concurrent analyses differing only in tau share one
// (benchmark, RunConfig) measurement set, so exactly one collection pass runs
// while the pipeline's analysis stages run K times. The taus keep 21, 28, 58
// and 133 cpu-flops events, so every analysis must cut the shared noise
// profile at its own tau: each body must equal the body a fresh server
// computes for that request alone.
func TestBatchingOneCollectionManyConfigs(t *testing.T) {
	taus := []float64{1e-10, 1e-6, 1e-3, 1e-1}
	wantKept := []int{21, 28, 58, 133}
	k := len(taus)
	s := newTestServer(t, Config{MaxSyncCompute: 2 * k})
	h := s.Handler()

	bodies := make([]string, k)
	for i, tau := range taus {
		cfg := core.Config{Tau: tau, Alpha: 5e-4, ProjectionTol: 0.01, RoundTol: 0.05}
		bodies[i] = marshalReq(t, analysis.Request{Benchmark: "cpu-flops", Config: &cfg})
	}
	var wg sync.WaitGroup
	replies := make([]*httptest.ResponseRecorder, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			replies[i] = postJSON(t, h, "/v1/analyze", bodies[i])
		}(i)
	}
	wg.Wait()
	for i, w := range replies {
		if w.Code != http.StatusOK {
			t.Fatalf("tau=%g: status %d: %s", taus[i], w.Code, w.Body)
		}
		var resp analysis.Response
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Noise.Kept != wantKept[i] {
			t.Fatalf("tau=%g kept %d events, want %d", taus[i], resp.Noise.Kept, wantKept[i])
		}
		alone := postJSON(t, newTestServer(t, Config{}).Handler(), "/v1/analyze", bodies[i])
		if alone.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), alone.Body.Bytes()) {
			t.Fatalf("tau=%g: batched body differs from a fresh server's (status %d)", taus[i], alone.Code)
		}
	}
	if got := s.collections.Value(); got != 1 {
		t.Fatalf("collections = %d for %d configs sharing a measurement set, want 1", got, k)
	}
	if got := s.batchCoalesced.Value(); got != uint64(k-1) {
		t.Fatalf("coalesced = %d, want %d", got, k-1)
	}
	if got := s.pipelineRuns.Value(); got != uint64(k) {
		t.Fatalf("pipeline runs = %d, want %d (analysis is per-config)", got, k)
	}
	text := metricsText(t, h)
	if !strings.Contains(text, fmt.Sprintf("eventlensd_batch_coalesced_total %d", k-1)) {
		t.Fatalf("coalesced counter not exported:\n%s", grepLines(text, "batch"))
	}
}

// replica is one in-process eventlensd in the cluster tests.
type replica struct {
	srv    *Server
	url    string
	cancel context.CancelFunc
	done   chan error
}

func (r *replica) kill(t *testing.T) {
	t.Helper()
	r.cancel()
	select {
	case <-r.done:
	case <-time.After(10 * time.Second):
		t.Fatal("replica did not shut down")
	}
}

// startCluster boots n replicas on pre-bound loopback listeners so every
// replica knows the full peer list before any of them starts.
func startCluster(t *testing.T, n int, chaos string) []*replica {
	t.Helper()
	listeners := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	reps := make([]*replica, n)
	for i := range reps {
		s, err := New(Config{
			Listener:        listeners[i],
			Peers:           urls,
			SelfURL:         urls[i],
			StoreDir:        t.TempDir(),
			Chaos:           chaos,
			ShutdownTimeout: 5 * time.Second,
			Logger:          slog.New(slog.NewTextHandler(io.Discard, nil)),
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		r := &replica{srv: s, url: urls[i], cancel: cancel, done: make(chan error, 1)}
		go func() { r.done <- s.Run(ctx) }()
		if _, err := s.WaitAddr(context.Background()); err != nil {
			t.Fatal(err)
		}
		reps[i] = r
	}
	t.Cleanup(func() {
		for _, r := range reps {
			r.cancel()
		}
	})
	return reps
}

// postAnalyze sends an analyze request to a replica over real HTTP.
func postAnalyze(t *testing.T, url string, req analysis.Request) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/analyze", "application/json", strings.NewReader(marshalReq(t, req)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestClusterShardingAndFailover is the 3-replica acceptance path:
// consistent-hash routing sends each key to its owner exactly once
// cluster-wide, K configs sharing a measurement set cost one collection
// pass, responses — analyses and defines alike — stay byte-identical to
// single-process serving, and a killed replica's keys are served by
// survivors.
func TestClusterShardingAndFailover(t *testing.T) {
	reps := startCluster(t, 3, "")
	entry := reps[0] // all client traffic enters here

	// Single-process reference for byte-identity.
	ref := newTestServer(t, Config{})
	refH := ref.Handler()
	expect := func(req analysis.Request) []byte {
		w := postJSON(t, refH, "/v1/analyze", marshalReq(t, req))
		if w.Code != http.StatusOK {
			t.Fatalf("reference analyze: %d %s", w.Code, w.Body)
		}
		return append([]byte(nil), w.Body.Bytes()...)
	}
	owner := func(req analysis.Request) string {
		return entry.srv.ring.Owners(keyOf(t, ref, req), 1)[0]
	}

	// Bucket candidate requests by owning replica.
	byOwner := map[string][]analysis.Request{}
	for i := 0; i < 24; i++ {
		req := taurq(i)
		byOwner[owner(req)] = append(byOwner[owner(req)], req)
	}

	// Phase 1 — batching across the tier: three configs owned by the same
	// replica share its measurement set, so the whole cluster runs exactly
	// one collection pass for them.
	var batchOwner string
	for url, reqs := range byOwner {
		if len(reqs) >= 3 {
			batchOwner = url
			break
		}
	}
	if batchOwner == "" {
		t.Fatal("no replica owns 3 of 24 candidate keys; ring balance is broken")
	}
	for _, req := range byOwner[batchOwner][:3] {
		resp, body := postAnalyze(t, entry.url, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("analyze via entry: %d %s", resp.StatusCode, body)
		}
		if !bytes.Equal(body, expect(req)) {
			t.Fatal("sharded response differs from single-process response")
		}
		if batchOwner != entry.url {
			if got := resp.Header.Get(servedByHeader); got != batchOwner {
				t.Fatalf("served by %q, owner is %q", got, batchOwner)
			}
		}
	}
	var collections, runs uint64
	for _, r := range reps {
		collections += r.srv.collections.Value()
		runs += r.srv.pipelineRuns.Value()
	}
	if collections != 1 {
		t.Fatalf("cluster ran %d collection passes for 3 batched configs, want 1", collections)
	}
	if runs != 3 {
		t.Fatalf("cluster ran %d pipelines, want 3 (one per config)", runs)
	}

	// Phase 2 — sharding: one fresh key per owner, each computed exactly
	// once cluster-wide, on its owner.
	picked := 0
	for url, reqs := range byOwner {
		req := reqs[len(reqs)-1]
		if url == batchOwner {
			req = reqs[3%len(reqs)]
		}
		resp, body := postAnalyze(t, entry.url, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("analyze via entry: %d %s", resp.StatusCode, body)
		}
		if !bytes.Equal(body, expect(req)) {
			t.Fatal("sharded response differs from single-process response")
		}
		servedBy := resp.Header.Get(servedByHeader)
		if url == entry.url && servedBy != "" {
			t.Fatalf("locally owned key forwarded to %q", servedBy)
		}
		if url != entry.url && servedBy != url {
			t.Fatalf("key owned by %q served by %q", url, servedBy)
		}
		picked++
	}
	if picked < 2 {
		t.Fatalf("only %d owners among candidates; sharding not exercised", picked)
	}

	// Phase 3 — define rides the same ring: a define whose key a non-entry
	// replica owns is forwarded there and relayed byte-identical to the
	// single-process response.
	var define, defineOwner string
	for i := 0; i < 16 && defineOwner == ""; i++ {
		req := analysis.DefineRequest{Request: taurq(i), Metric: "DP Ops."}
		ep, err := analysisEndpoint[analysis.DefineRequest](ref, "define|")(req)
		if err != nil {
			t.Fatal(err)
		}
		if o := entry.srv.ring.Owners(ep.key, 1)[0]; o != entry.url {
			data, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			define, defineOwner = string(data), o
		}
	}
	if defineOwner == "" {
		t.Fatal("no candidate define key owned by a non-entry replica")
	}
	resp, err := http.Post(entry.url+"/v1/metrics/define", "application/json", strings.NewReader(define))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("define via entry: %d %v %s", resp.StatusCode, err, body)
	}
	if got := resp.Header.Get(servedByHeader); got != defineOwner {
		t.Fatalf("define served by %q, owner is %q", got, defineOwner)
	}
	if w := postJSON(t, refH, "/v1/metrics/define", define); !bytes.Equal(body, w.Body.Bytes()) {
		t.Fatal("sharded define differs from single-process define")
	}

	// Phase 4 — failover: kill a non-entry owner and request a fresh key it
	// owns. A survivor serves it, byte-identical.
	var victim *replica
	for _, r := range reps[1:] {
		if len(byOwner[r.url]) >= 5 {
			victim = r
			break
		}
	}
	if victim == nil {
		t.Fatal("no non-entry replica owns 5 candidate keys")
	}
	req := byOwner[victim.url][4]
	want := expect(req)
	victim.kill(t)
	resp, body = postAnalyze(t, entry.url, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze after kill: %d %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("failover response differs from single-process response")
	}
	if got := resp.Header.Get(servedByHeader); got == victim.url {
		t.Fatalf("dead replica %q reported as serving", got)
	}
	if entry.srv.shardRequests.With("failover").Value()+entry.srv.shardRequests.With("forwarded").Value() == 0 {
		t.Fatal("failover left no trace in the shard outcome counters")
	}
}

// TestClusterPeerChaosFailsOver runs the kill-a-replica scenario under
// deterministic fault injection instead of a real process kill: a
// transient-rate-1 chaos plan fails every peer link at the SitePeer seam
// before dialing, so every remotely owned key fails over to local serving —
// still byte-identical — and the injections are counted.
func TestClusterPeerChaosFailsOver(t *testing.T) {
	// Peers need not exist: the injected link fault fires before any dial.
	dead := []string{"http://127.0.0.1:9", "http://127.0.0.1:10"}
	self := "http://127.0.0.1:11"
	s := newTestServer(t, Config{
		Peers:   append(dead, self),
		SelfURL: self,
		Chaos:   "seed=3,transient=1",
	})
	h := s.Handler()
	ref := newTestServer(t, Config{})
	refH := ref.Handler()

	// Find a request owned by a dead peer so forwarding is attempted.
	var req analysis.Request
	found := false
	for i := 0; i < 16 && !found; i++ {
		req = taurq(i)
		owner := s.ring.Owners(keyOf(t, s, req), 1)[0]
		found = owner != self
	}
	if !found {
		t.Fatal("no candidate key owned by a remote peer")
	}
	w := postJSON(t, h, "/v1/analyze", marshalReq(t, req))
	if w.Code != http.StatusOK {
		t.Fatalf("analyze under peer chaos: %d %s", w.Code, w.Body)
	}
	refW := postJSON(t, refH, "/v1/analyze", marshalReq(t, req))
	if !bytes.Equal(w.Body.Bytes(), refW.Body.Bytes()) {
		t.Fatal("chaos failover response differs from single-process response")
	}
	if got := s.shardRequests.With("failover").Value(); got != 1 {
		t.Fatalf("failover outcome counted %d times, want 1", got)
	}
	text := metricsText(t, h)
	if !strings.Contains(text, `eventlensd_faults_injected_total{site="peer",kind="transient"}`) {
		t.Fatalf("peer injections not counted:\n%s", grepLines(text, "faults_injected"))
	}
}

// TestSyncAdmissionControl fills the synchronous compute bound on every
// cached POST endpoint and expects the next computing request to be
// rejected with 429 + Retry-After and counted, while cache hits keep
// flowing.
func TestSyncAdmissionControl(t *testing.T) {
	for _, tc := range []struct{ path, body string }{
		{"/v1/analyze", marshalReq(t, taurq(1))},
		{"/v1/events/validate", validateBody("spr", []string{"branch"}, "")},
		{"/v1/matrix", `{"platforms":["zen4"],"benchmarks":["branch"]}`},
		{"/v1/metrics/define", `{"benchmark":"branch","metric":"Mispredicted Branches."}`},
		{"/v1/events/explain", `{"benchmark":"branch"}`},
	} {
		t.Run(tc.path, func(t *testing.T) {
			s := newTestServer(t, Config{MaxSyncCompute: 1})
			h := s.Handler()

			// Occupy the single compute slot directly; a request computing a
			// new key must now be rejected at admission.
			release, err := s.admitSync()
			if err != nil {
				t.Fatal(err)
			}
			w := postJSON(t, h, tc.path, tc.body)
			msg := decodeEnvelope(t, w, http.StatusTooManyRequests)
			if !strings.Contains(msg, "overloaded") {
				t.Fatalf("message = %q", msg)
			}
			if w.Header().Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After hint")
			}
			release()

			// With the slot free the same request computes...
			if w := postJSON(t, h, tc.path, tc.body); w.Code != http.StatusOK {
				t.Fatalf("after release: %d %s", w.Code, w.Body)
			}
			// ...and cache hits bypass admission even at the bound.
			release, err = s.admitSync()
			if err != nil {
				t.Fatal(err)
			}
			defer release()
			w = postJSON(t, h, tc.path, tc.body)
			if w.Code != http.StatusOK {
				t.Fatalf("cache hit rejected at admission: %d %s", w.Code, w.Body)
			}
			if got := w.Header().Get("X-Eventlens-Cache"); got != "hit" {
				t.Fatalf("cache header = %q", got)
			}
			text := metricsText(t, h)
			if !strings.Contains(text, `eventlensd_admission_rejected_total{site="sync"} 1`) {
				t.Fatalf("sync rejection not counted:\n%s", grepLines(text, "admission"))
			}
		})
	}
}
