package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/perfmetrics/eventlens/internal/par"
	"github.com/perfmetrics/eventlens/internal/server"
)

// Response headers the daemon sets: the ladder rung that served a request,
// and the replica that produced a forwarded response.
const (
	headerCache    = "X-Eventlens-Cache"
	headerServedBy = "X-Eventlens-Served-By"
)

// tier is one set-up of the system under test: a workload's replicas, each
// serving internal/server's handler on a loopback listener.
type tier struct {
	servers []*httptest.Server
	urls    []string
	dirs    []string
	client  *http.Client
}

func startTier(w *workload) (*tier, error) {
	t := &tier{client: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 2 * clients,
		DisableCompression:  true,
	}}}
	for i := 0; i < w.replicas; i++ {
		hs := httptest.NewUnstartedServer(nil)
		t.servers = append(t.servers, hs)
		t.urls = append(t.urls, "http://"+hs.Listener.Addr().String())
	}
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	for i, hs := range t.servers {
		cfg := server.Config{CacheSize: w.cacheSize, Logger: logger}
		if w.replicas > 1 {
			cfg.Peers, cfg.SelfURL = t.urls, t.urls[i]
		}
		if w.store {
			dir, err := os.MkdirTemp("", "loadgen-store-")
			if err != nil {
				t.close()
				return nil, err
			}
			t.dirs = append(t.dirs, dir)
			cfg.StoreDir = dir
		}
		s, err := server.New(cfg)
		if err != nil {
			t.close()
			return nil, err
		}
		hs.Config.Handler = s.Handler()
		hs.Start()
	}
	return t, nil
}

// close stops every replica, waiting for in-flight requests, and removes
// the stores.
func (t *tier) close() {
	t.client.CloseIdleConnections()
	for _, hs := range t.servers {
		hs.Close()
	}
	for _, dir := range t.dirs {
		if err := os.RemoveAll(dir); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: removing %s: %v\n", dir, err)
		}
	}
}

// reply is one HTTP response as the client saw it.
type reply struct {
	status   int
	body     []byte
	rung     string
	servedBy string
}

// post sends r to the first replica and reads the whole response into buf,
// which the reply's body aliases; a nil buf allocates one.
func (t *tier) post(ctx context.Context, r request, buf *bytes.Buffer) (reply, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, t.urls[0]+r.Path, bytes.NewReader(r.Body))
	if err != nil {
		return reply{}, err
	}
	hr.Header.Set("Content-Type", "application/json")
	resp, err := t.client.Do(hr)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	if buf == nil {
		buf = &bytes.Buffer{}
	}
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return reply{}, err
	}
	return reply{
		status:   resp.StatusCode,
		body:     buf.Bytes(),
		rung:     resp.Header.Get(headerCache),
		servedBy: resp.Header.Get(headerServedBy),
	}, nil
}

// postOK is post that treats any status but 200 as an error.
func (t *tier) postOK(ctx context.Context, r request) (reply, error) {
	rep, err := t.post(ctx, r, nil)
	if err == nil && rep.status != http.StatusOK {
		err = fmt.Errorf("%s %s: status %d: %s", r.Path, r.Body, rep.status, bytes.TrimSpace(rep.body))
	}
	return rep, err
}

// warmUp serves the workload's set-up requests and returns those it sent.
// For a sharded tier each request is repeated with fresh keys until both
// replicas have served it, so both hold its measurement set.
func (t *tier) warmUp(ctx context.Context, w *workload) ([]request, error) {
	var sent []request
	for _, r := range w.warm {
		if len(t.urls) < 2 {
			if _, err := t.postOK(ctx, r); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
			sent = append(sent, r)
			continue
		}
		local, forwarded := false, false
		for j := 0; !local || !forwarded; j++ {
			if j == 64 {
				return nil, fmt.Errorf("warm-up: %s never reached both replicas", r.Body)
			}
			// Timed keys nudge tau up; nudging it down keeps these apart.
			cfg := *r.Analyze.Config
			cfg.Tau *= 1 - float64(j+1)*1e-9
			v := newRequest(pathAnalyze, analyzeRequest{Benchmark: r.Analyze.Benchmark, Run: r.Analyze.Run, Config: &cfg})
			rep, err := t.postOK(ctx, v)
			if err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
			sent = append(sent, v)
			if rep.servedBy == "" {
				local = true
			} else {
				forwarded = true
			}
		}
	}
	return sent, nil
}

// get fetches url and reads the whole response, treating any status but
// 200 as an error.
func (t *tier) get(ctx context.Context, url string) ([]byte, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := t.client.Do(hr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return body, err
}

// discover makes the calls a client makes before sending work, as
// examples/client does: readiness, then the benchmark and platform
// registries.
func (t *tier) discover(ctx context.Context) error {
	for _, path := range []string{"/healthz", "/v1/benchmarks", "/v1/platforms"} {
		if _, err := t.get(ctx, t.urls[0]+path); err != nil {
			return err
		}
	}
	return nil
}

// scrape reads every replica's /metrics and sums each series over them.
func (t *tier) scrape(ctx context.Context) (promText, error) {
	total := promText{}
	for _, u := range t.urls {
		body, err := t.get(ctx, u+"/metrics")
		if err != nil {
			return nil, err
		}
		p, err := parseProm(string(body))
		if err != nil {
			return nil, fmt.Errorf("%s/metrics: %w", u, err)
		}
		total.add(p)
	}
	return total, nil
}

// record is one request of a timed phase.
type record struct {
	idx        int
	start, end time.Duration // since the phase started
	ok         bool
	rung       string
	servedBy   string // empty unless another replica produced the reply
	size       int
}

// digestSeed keys the response digests: they detect wrong bytes, not
// adversaries, so a fast keyed hash of the process serves.
var digestSeed = maphash.MakeSeed()

func digest(b []byte) uint64 { return maphash.Bytes(digestSeed, b) }

func digestString(s string) uint64 { return maphash.String(digestSeed, s) }

// seen is the first response a phase received for one request body. Every
// later response to the same body must carry the same bytes.
type seen struct {
	idx    int
	req    request
	digest uint64 // of the response body
	report uint64 // of the report text (analyze only)
	body   []byte // kept by traced phases for the replay
}

// phase is the outcome of one timed, closed-loop HTTP phase.
type phase struct {
	start    time.Time
	window   time.Duration
	records  []record // ordered by request index
	failures int
	errs     []string // the first few failures, for the log

	mu   sync.Mutex
	keys map[string]*seen // by request body
	keep bool

	cpu    time.Duration
	allocs uint64
	gcs    uint64
	before promText
	after  promText
}

// maxLoggedErrors bounds the failures a phase keeps for the log.
const maxLoggedErrors = 5

func (p *phase) fail(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failures++
	if len(p.errs) < maxLoggedErrors {
		p.errs = append(p.errs, err.Error())
	}
}

// check verifies one 200 response: the first body for a request must
// decode to the endpoint's shape, and every later one must equal it.
func (p *phase) check(i int, req request, body []byte) error {
	sum := digest(body)
	p.mu.Lock()
	first, ok := p.keys[string(req.Body)]
	p.mu.Unlock()
	if ok {
		if first.digest != sum {
			return fmt.Errorf("%s %s: body differs from the first response to the same request", req.Path, req.Body)
		}
		return nil
	}
	report, err := checkShape(req, body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", req.Path, req.Body, err)
	}
	s := &seen{idx: i, req: req, digest: sum, report: digestString(report)}
	if p.keep {
		s.body = bytes.Clone(body)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if other, dup := p.keys[string(req.Body)]; dup {
		// Both clients received a first response; keep the earlier index.
		if other.digest != sum {
			return fmt.Errorf("%s %s: body differs from a concurrent response to the same request", req.Path, req.Body)
		}
		if i < other.idx {
			other.idx = i
		}
		return nil
	}
	p.keys[string(req.Body)] = s
	return nil
}

// checkShape decodes a response body and checks it has the endpoint's
// shape, returning the analyze report text.
func checkShape(req request, body []byte) (string, error) {
	switch req.endpoint() {
	case "validate":
		var v struct {
			Platform string            `json:"platform"`
			Events   []json.RawMessage `json:"events"`
			Report   string            `json:"report"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return "", err
		}
		if v.Platform == "" || len(v.Events) == 0 || v.Report == "" {
			return "", errors.New("validate envelope lacks platform, events or report")
		}
		return "", nil
	case "matrix":
		var v struct {
			Cells  []json.RawMessage `json:"cells"`
			Total  int               `json:"total"`
			Matrix string            `json:"matrix"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return "", err
		}
		if len(v.Cells) == 0 || len(v.Cells) != v.Total || v.Matrix == "" {
			return "", errors.New("matrix envelope lacks cells or text")
		}
		return "", nil
	}
	var v struct {
		Benchmark string            `json:"benchmark"`
		Metrics   []json.RawMessage `json:"metrics"`
		Report    string            `json:"report"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return "", err
	}
	if v.Benchmark != req.Analyze.Benchmark || len(v.Metrics) == 0 || v.Report == "" {
		return "", errors.New("analysis lacks benchmark, metrics or report")
	}
	return v.Report, nil
}

// drive runs one timed phase: clients closed-loop clients take request
// indices in order from a shared counter and send request gen(seed, i) until
// the window closes; requests in flight then finish and are checked, but
// only responses inside the window count toward throughput. With keep set,
// the phase keeps the first body of every request for the replay.
func drive(ctx context.Context, t *tier, w *workload, seed uint64, window time.Duration, keep bool) (*phase, error) {
	p := &phase{window: window, keys: map[string]*seen{}, keep: keep}
	var err error
	if p.before, err = t.scrape(ctx); err != nil {
		return nil, err
	}
	var next atomic.Int64
	perClient := make([][]record, clients)
	cpu0, rt0 := cpuTime(), readRuntime()
	p.start = time.Now()
	start := p.start
	par.For(clients, clients, func(c int) {
		var buf bytes.Buffer
		for time.Since(start) < window && ctx.Err() == nil {
			i := int(next.Add(1) - 1)
			req := w.gen(seed, i)
			rec := record{idx: i, start: time.Since(start)}
			rep, err := t.post(ctx, req, &buf)
			rec.end = time.Since(start)
			switch {
			case err != nil:
				p.fail(fmt.Errorf("%s: %w", req.Path, err))
			case rep.status != http.StatusOK:
				p.fail(fmt.Errorf("%s %s: status %d", req.Path, req.Body, rep.status))
			default:
				if err := p.check(i, req, rep.body); err != nil {
					p.fail(err)
				} else {
					rec.ok = true
				}
			}
			rec.rung, rec.servedBy, rec.size = rep.rung, rep.servedBy, len(rep.body)
			perClient[c] = append(perClient[c], rec)
		}
	})
	rt1 := readRuntime()
	p.cpu = cpuTime() - cpu0
	p.allocs, p.gcs = rt1.allocs-rt0.allocs, rt1.gcs-rt0.gcs
	if p.after, err = t.scrape(ctx); err != nil {
		return nil, err
	}
	for _, recs := range perClient {
		p.records = append(p.records, recs...)
	}
	sort.Slice(p.records, func(a, b int) bool { return p.records[a].idx < p.records[b].idx })
	return p, nil
}

// completed counts the successful responses, and those inside the window.
func (p *phase) completed() (all, inWindow int) {
	for _, r := range p.records {
		if r.ok {
			all++
			if r.end <= p.window {
				inWindow++
			}
		}
	}
	return all, inWindow
}

// latenciesMS returns the sorted latencies of successful requests that
// match keep, in milliseconds.
func (p *phase) latenciesMS(keep func(record) bool) []float64 {
	var out []float64
	for _, r := range p.records {
		if r.ok && keep(r) {
			out = append(out, ms(r.end-r.start))
		}
	}
	sort.Float64s(out)
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
