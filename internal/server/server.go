// Package server implements eventlensd, the HTTP/JSON daemon that serves
// the paper's analysis pipeline on demand: synchronous analysis endpoints,
// an async job layer over a bounded worker pool, an LRU+singleflight result
// cache (the pipeline is deterministic, so hits are exact), and
// self-observability via /healthz and Prometheus-format /metrics.
//
// The daemon is stdlib-only. See cmd/serve for the binary.
package server

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/perfmetrics/eventlens/internal/analysis"
	"github.com/perfmetrics/eventlens/internal/core"
	"github.com/perfmetrics/eventlens/internal/fault"
	"github.com/perfmetrics/eventlens/internal/machine"
	"github.com/perfmetrics/eventlens/internal/obs"
	"github.com/perfmetrics/eventlens/internal/shard"
	"github.com/perfmetrics/eventlens/internal/store"
)

// Config holds the daemon configuration.
type Config struct {
	// Addr is the listen address, e.g. ":8080" or "127.0.0.1:0".
	Addr string
	// Workers is the async job pool size. Defaults to GOMAXPROCS.
	Workers int
	// PipelineWorkers bounds each pipeline run's internal worker pool
	// (collection, noise filtering, projection). 0 leaves requests'
	// run/config workers settings untouched (each defaulting to GOMAXPROCS
	// inside the pipeline); a positive value fills in requests that did not
	// set workers themselves. The knob never changes results — parallel and
	// serial runs are byte-identical — so it does not participate in cache
	// keys.
	PipelineWorkers int
	// QueueDepth bounds the async job queue; a full queue rejects new jobs
	// with 429 and a Retry-After hint. Defaults to 4x Workers.
	QueueDepth int
	// CacheSize bounds the LRU result cache (entries), and the analysis
	// cache behind it, which the analyze, define, explain and presets
	// computations share. It also bounds the finished async jobs kept for
	// polling, though never below QueueDepth+Workers: past the bound the
	// oldest finished job is forgotten. Defaults to 64.
	CacheSize int
	// JobTimeout bounds each async job's pipeline run. Defaults to 1m.
	JobTimeout time.Duration
	// ShutdownTimeout bounds connection draining and job draining on
	// shutdown. Defaults to 10s.
	ShutdownTimeout time.Duration
	// MaxBodyBytes bounds request bodies. Defaults to 1 MiB.
	MaxBodyBytes int64
	// Chaos optionally enables deterministic fault injection at the daemon's
	// own seams, as a fault.Spec string ("seed=7,http503=0.1,transient=0.2").
	// HTTP-kind faults fire per (endpoint, request ordinal) on /v1/ routes;
	// job kinds fire per (benchmark, job ordinal) in the async worker. Empty
	// disables injection. This knob exercises the daemon's resilience; it is
	// independent of measurement-layer injection (RunConfig.Faults).
	Chaos string
	// PlatformDir loads extra platform definitions (platdef text files,
	// *.pdef) into the daemon's platform registry at startup. Definitions
	// whose names match built-in platforms override them; new names extend
	// the registry. The registry is the daemon's only source of platform
	// definitions: every endpoint reads it, and every cached endpoint's key
	// names the digest of each definition its request reads. Empty serves
	// the built-in platforms only.
	PlatformDir string
	// StoreDir enables the persistent, content-addressed result store: every
	// response a cached endpoint computes is published there (atomic
	// write-rename, checksummed), and cache misses consult it before
	// recomputing, so the cache warms from disk across restarts. A corrupt or
	// truncated entry is a miss, never a failure. Empty disables persistence.
	StoreDir string
	// Peers lists the base URLs ("http://host:port") of every replica in the
	// serving tier, including this one. With two or more distinct peers,
	// the keys of the cached POST endpoints (/v1/analyze, /v1/events/validate,
	// /v1/matrix, /v1/metrics/define, /v1/events/explain) are partitioned
	// across replicas by consistent hashing and requests are forwarded to
	// their owner, failing over in ring order when owners are unreachable.
	// Empty (or just this replica) serves everything locally.
	Peers []string
	// SelfURL is this replica's own entry in Peers; required when Peers is
	// set, so the replica can recognize keys it owns.
	SelfURL string
	// MaxSyncCompute bounds concurrently executing synchronous pipeline
	// computations. Requests that would exceed it are rejected with
	// 429 Too Many Requests and a Retry-After hint — admission control, so
	// overload degrades to fast rejections instead of unbounded queueing.
	// Cache hits, disk hits and requests joining an in-flight identical
	// computation are never rejected. Defaults to 4x GOMAXPROCS.
	MaxSyncCompute int
	// Listener optionally provides a pre-bound listener for Run, overriding
	// Addr. Cluster tests and embedders use it to know every replica's
	// address before any replica starts.
	Listener net.Listener
	// Logger receives structured request and lifecycle logs. Defaults to
	// slog.Default().
	Logger *slog.Logger
}

const (
	// setCacheSize bounds the in-memory measurement-set cache (entries) that
	// batches analyses sharing a (benchmark, RunConfig) collection: one
	// collection pass, reduced to its noise profile, serves every analysis
	// configuration over the same measurement set.
	setCacheSize = 8
	// retryBase is the base delay of the async job retry backoff
	// (exponential, seeded jitter).
	retryBase = 10 * time.Millisecond
)

// Validate rejects configurations withDefaults would silently mangle:
// negative worker counts are almost always a flag typo, and letting a
// negative PipelineWorkers through would surface only later as a confusing
// per-request validation error.
func (c Config) Validate() error {
	if c.Workers < 0 {
		return fmt.Errorf("server: workers must be >= 0 (0 means GOMAXPROCS), got %d", c.Workers)
	}
	if c.PipelineWorkers < 0 {
		return fmt.Errorf("server: pipeline workers must be >= 0 (0 means GOMAXPROCS), got %d", c.PipelineWorkers)
	}
	if c.QueueDepth < 0 {
		return fmt.Errorf("server: queue depth must be >= 0 (0 means 4x workers), got %d", c.QueueDepth)
	}
	if c.Chaos != "" {
		if _, err := fault.ParseSpec(c.Chaos); err != nil {
			return fmt.Errorf("server: bad chaos spec: %v", err)
		}
	}
	if c.MaxSyncCompute < 0 {
		return fmt.Errorf("server: max sync compute must be >= 0 (0 means 4x GOMAXPROCS), got %d", c.MaxSyncCompute)
	}
	if len(c.Peers) > 0 {
		if c.SelfURL == "" {
			return fmt.Errorf("server: peers set but self URL empty; a replica must know its own entry")
		}
		found := false
		for _, p := range c.Peers {
			if p == c.SelfURL {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("server: self URL %q not among peers %v", c.SelfURL, c.Peers)
		}
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 64
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = time.Minute
	}
	if c.ShutdownTimeout <= 0 {
		c.ShutdownTimeout = 10 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxSyncCompute <= 0 {
		c.MaxSyncCompute = 4 * runtime.GOMAXPROCS(0)
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Server is the eventlensd daemon.
type Server struct {
	cfg      Config
	log      *slog.Logger
	cache    *flightCache[[]byte]
	analyses *flightCache[*analysis.Analysis]
	sets     *flightCache[*core.NoiseProfile]
	jobs     *jobManager

	// platforms is the daemon's platform registry: the built-in platforms,
	// extended by Config.PlatformDir. Built once in New; immutable.
	platforms *machine.Registry

	// store is the persistent result store (nil when Config.StoreDir is
	// empty); ring and self describe this replica's place in the serving
	// tier (ring nil when the tier is this single replica).
	store      *store.Store
	ring       *shard.Ring
	self       string
	peerClient *http.Client

	// syncSem is the admission-control semaphore bounding synchronous
	// pipeline computations; see Config.MaxSyncCompute.
	syncSem chan struct{}

	// chaos is the daemon-seam fault plan (nil when Config.Chaos is empty).
	// HTTP request ordinals — the per-endpoint coordinate axis — live in
	// httpSeq; peer-forward ordinals in peerSeq. Both guarded by seqMu.
	chaos   *fault.Plan
	seqMu   sync.Mutex
	httpSeq map[string]int
	peerSeq map[string]int

	reg             *obs.Registry
	requestsTotal   *obs.CounterVec
	cacheHits       *obs.Counter
	cacheMisses     *obs.Counter
	pipelineRuns    *obs.Counter
	pipelineSeconds *obs.Histogram
	httpSeconds     *obs.Histogram
	jobsInflight    *obs.Gauge
	queueDepth      *obs.Gauge
	jobsTotal       *obs.CounterVec
	faultsInjected  *obs.CounterVec
	jobRetries      *obs.Counter

	storeHits      *obs.Counter
	storeMisses    *obs.Counter
	storeWrites    *obs.Counter
	storeCorrupt   *obs.Counter
	batchCoalesced *obs.Counter
	collections    *obs.Counter
	shardRequests  *obs.CounterVec
	admissionRejch *obs.CounterVec

	validateRuns     *obs.Counter
	validateVerdicts *obs.CounterVec
	minimalRuns      *obs.Counter
	minimalPruned    *obs.Counter
	matrixRuns       *obs.Counter
	matrixCells      *obs.Counter

	addrMu    sync.Mutex
	boundAddr net.Addr
	ready     chan struct{} // closed once Run is listening
}

// New constructs a Server from cfg (zero fields take defaults). It fails
// only on distributed-tier configuration: an unopenable store directory or
// an unusable peer list.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	reg := obs.NewRegistry()
	s := &Server{
		cfg:        cfg,
		log:        cfg.Logger,
		reg:        reg,
		httpSeq:    map[string]int{},
		peerSeq:    map[string]int{},
		peerClient: &http.Client{},
		syncSem:    make(chan struct{}, cfg.MaxSyncCompute),
		ready:      make(chan struct{}),
	}
	platforms, err := machine.NewRegistry(cfg.PlatformDir)
	if err != nil {
		return nil, fmt.Errorf("server: loading platforms: %w", err)
	}
	s.platforms = platforms
	if cfg.StoreDir != "" {
		st, err := store.Open(cfg.StoreDir)
		if err != nil {
			return nil, fmt.Errorf("server: opening result store: %w", err)
		}
		s.store = st
	}
	if len(cfg.Peers) > 0 {
		ring, err := shard.New(cfg.Peers, 0)
		if err != nil {
			return nil, fmt.Errorf("server: building shard ring: %w", err)
		}
		found := false
		for _, p := range ring.Peers() {
			if p == cfg.SelfURL {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("server: self URL %q not among peers %v", cfg.SelfURL, cfg.Peers)
		}
		// A "tier" of one replica is the single-process path.
		if len(ring.Peers()) > 1 {
			s.ring = ring
			s.self = cfg.SelfURL
		}
	}
	if cfg.Chaos != "" {
		// Validate reports a bad spec to the operator; a Server built
		// without Validate simply runs clean on an unparsable spec.
		if plan, err := fault.Parse(cfg.Chaos); err == nil {
			s.chaos = plan
		}
	}
	s.requestsTotal = reg.CounterVec("eventlensd_requests_total",
		"HTTP requests served, by route pattern and status code.", "route", "code")
	s.cacheHits = reg.Counter("eventlensd_cache_hits_total",
		"Result cache hits on every cached endpoint (analyze, validate, matrix, define, explain, presets and jobs), including requests that joined an in-flight identical run.")
	s.cacheMisses = reg.Counter("eventlensd_cache_misses_total",
		"Result cache misses on every cached endpoint (each miss reads the store or computes once).")
	s.pipelineRuns = reg.Counter("eventlensd_pipeline_runs_total",
		"Analysis runs (noise filter + projection + QRCP + metrics over a shared measurement set), one per analysis key computed; analyze, define, explain and presets computations share it.")
	s.pipelineSeconds = reg.Histogram("eventlensd_pipeline_seconds",
		"Latency of serving-ladder computations (cache and store misses) on every cached endpoint.", obs.DefLatencyBuckets())
	s.httpSeconds = reg.Histogram("eventlensd_http_request_seconds",
		"HTTP request latency.", obs.DefLatencyBuckets())
	s.jobsInflight = reg.Gauge("eventlensd_jobs_inflight",
		"Async jobs currently executing.")
	s.queueDepth = reg.Gauge("eventlensd_jobs_queue_depth",
		"Async jobs waiting in the queue.")
	s.jobsTotal = reg.CounterVec("eventlensd_jobs_total",
		"Async jobs finished, by terminal status.", "status")
	s.faultsInjected = reg.CounterVec("eventlensd_faults_injected_total",
		"Chaos faults injected at daemon seams, by site and kind.", "site", "kind")
	s.jobRetries = reg.Counter("eventlensd_job_retries_total",
		"Async job re-runs after transient injected faults.")
	s.storeHits = reg.Counter("eventlensd_store_hits_total",
		"Persistent result-store reads that returned a verified entry.")
	s.storeMisses = reg.Counter("eventlensd_store_misses_total",
		"Persistent result-store reads that found no entry.")
	s.storeWrites = reg.Counter("eventlensd_store_writes_total",
		"Responses of every cached endpoint published to the persistent result store.")
	s.storeCorrupt = reg.Counter("eventlensd_store_corrupt_total",
		"Persistent result-store entries that failed verification (served as misses).")
	s.batchCoalesced = reg.Counter("eventlensd_batch_coalesced_total",
		"Measurement sets read from cache instead of collected: analyses (matrix pairs included) sharing a set another configuration collected, and validations reading a noise profile the set cache or a cached analysis holds.")
	s.collections = reg.Counter("eventlensd_collections_total",
		"Benchmark collection passes executed, each reduced to its noise profile: the set cache's misses, which serve every analysis and matrix pair sharing the measurement set, and validations' own passes over sets neither cache held.")
	s.shardRequests = reg.CounterVec("eventlensd_shard_requests_total",
		"Sharded analyze, validate, matrix, define and explain requests, by routing outcome (local, forwarded, failover).", "outcome")
	s.admissionRejch = reg.CounterVec("eventlensd_admission_rejected_total",
		"Requests rejected with 429 by admission control, by site (sync, jobs).", "site")
	s.validateRuns = reg.Counter("eventlensd_validate_runs_total",
		"Event-trust validation runs executed (cache and store hits excluded).")
	s.validateVerdicts = reg.CounterVec("eventlensd_validate_verdicts_total",
		"Event-trust verdicts assigned by validation runs, by verdict.", "verdict")
	s.minimalRuns = reg.Counter("eventlensd_minimal_kernel_collections_total",
		"Collection passes that ran with minimal spanning kernel selection.")
	s.minimalPruned = reg.Counter("eventlensd_minimal_kernels_pruned_total",
		"Kernel points skipped by minimal spanning selection, summed over collections.")
	s.matrixRuns = reg.Counter("eventlensd_matrix_runs_total",
		"Composability-matrix computations executed (cache and store hits excluded).")
	s.matrixCells = reg.Counter("eventlensd_matrix_cells_total",
		"Composability-matrix cells produced by matrix computations.")
	reg.GaugeFunc("eventlensd_store_entries",
		"Entries currently in the persistent result store.", func() int64 {
			if s.store == nil {
				return 0
			}
			return int64(s.store.Len())
		})
	s.cache = newFlightCache[[]byte](cfg.CacheSize, s.cacheHits, s.cacheMisses)
	// pipelineRuns counts the analyses computed; the cache's own counters go
	// unexported.
	s.analyses = newFlightCache[*analysis.Analysis](cfg.CacheSize, new(obs.Counter), new(obs.Counter))
	s.sets = newFlightCache[*core.NoiseProfile](setCacheSize, s.batchCoalesced, s.collections)
	// At most QueueDepth+Workers jobs are outstanding at once, so keeping at
	// least that many finished ones lets every job of a full burst finish
	// before any of them is forgotten.
	retain := max(cfg.CacheSize, cfg.QueueDepth+cfg.Workers)
	s.jobs = newJobManager(cfg.QueueDepth, retain, cfg.JobTimeout, s.jobsInflight, s.queueDepth, s.jobsTotal)
	return s, nil
}

// Handler returns the daemon's routed and instrumented HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/platforms", s.handlePlatforms)
	mux.HandleFunc("GET /v1/benchmarks", s.handleBenchmarks)
	mux.HandleFunc("POST /v1/analyze", handleLadder(s, analysisEndpoint[analysis.Request](s, "")))
	mux.HandleFunc("POST /v1/events/validate", handleLadder(s, s.validateEndpoint))
	mux.HandleFunc("POST /v1/matrix", handleLadder(s, s.matrixEndpoint))
	mux.HandleFunc("POST /v1/metrics/define", handleLadder(s, analysisEndpoint[analysis.DefineRequest](s, "define|")))
	mux.HandleFunc("POST /v1/events/explain", handleLadder(s, analysisEndpoint[analysis.ExplainRequest](s, "explain|")))
	mux.HandleFunc("GET /v1/presets/{benchmark}", s.handlePresets)
	mux.HandleFunc("POST /v1/jobs", s.handleJobCreate)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	return s.instrument(s.injectHTTP(mux))
}

// injectHTTP is the chaos middleware: on /v1/ routes it consults the fault
// plan at (endpoint, request ordinal) and may reject the request with 503 or
// delay it and fail with 504, both with a Retry-After hint. Ordinals count
// per endpoint, so the nth request to an endpoint sees the same fate in
// every run of the same seed. Health and metrics endpoints are never
// injected — operators must be able to watch a chaos run.
func (s *Server) injectHTTP(next http.Handler) http.Handler {
	if s.chaos == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/") {
			next.ServeHTTP(w, r)
			return
		}
		name := r.Method + " " + r.URL.Path
		s.seqMu.Lock()
		n := s.httpSeq[name]
		s.httpSeq[name] = n + 1
		s.seqMu.Unlock()
		coord := fault.Coord{Site: fault.SiteHTTP, Name: name, Rep: n}
		switch kind := s.chaos.At(coord, 0); kind {
		case fault.HTTP503:
			s.faultsInjected.With(string(fault.SiteHTTP), kind.String()).Inc()
			w.Header().Set("Retry-After", "1")
			f := &fault.Fault{Kind: kind, Coord: coord}
			writeError(w, http.StatusServiceUnavailable, f.Error())
		case fault.HTTPTimeout:
			s.faultsInjected.With(string(fault.SiteHTTP), kind.String()).Inc()
			fault.Sleep(s.chaos.Delay(coord))
			w.Header().Set("Retry-After", "1")
			f := &fault.Fault{Kind: kind, Coord: coord}
			writeError(w, http.StatusGatewayTimeout, f.Error())
		default:
			next.ServeHTTP(w, r)
		}
	})
}

// instrument wraps the handler chain with request logging, body limits and
// metrics.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		}
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		elapsed := time.Since(start)
		route := routePattern(r)
		s.requestsTotal.With(route, strconv.Itoa(rec.status)).Inc()
		s.httpSeconds.Observe(elapsed.Seconds())
		s.log.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"route", route,
			"status", rec.status,
			"duration", elapsed,
			"remote", r.RemoteAddr,
		)
	})
}

// routePattern returns the matched mux pattern without the method prefix,
// so metrics aggregate by route ("/v1/jobs/{id}") rather than by raw path.
func routePattern(r *http.Request) string {
	p := r.Pattern
	if p == "" {
		return "unmatched"
	}
	if i := len(r.Method) + 1; len(p) > i && p[:i] == r.Method+" " {
		p = p[i:]
	}
	return p
}

// statusRecorder captures the response status for logging and metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// WaitAddr blocks until Run is listening and returns the bound address, or
// returns ctx's error. It lets callers of Run (started in a goroutine, or
// with Addr ":0") learn the actual port.
func (s *Server) WaitAddr(ctx context.Context) (net.Addr, error) {
	select {
	case <-s.ready:
		s.addrMu.Lock()
		defer s.addrMu.Unlock()
		return s.boundAddr, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// startJobWorkers launches the async worker pool; Run calls this, and
// handler tests call it directly when exercising the mux without a listener.
func (s *Server) startJobWorkers(ctx context.Context) {
	s.jobs.start(ctx, s.cfg.Workers, func(ctx context.Context, j *job) {
		result, err := s.runJobResilient(ctx, j)
		j.finish(result, err)
	})
}

// jobRetryBudget is the async retry budget: the chaos spec's retries=.
// The only transient job failure is the job seam's own injected fault, so
// without a chaos plan there is nothing to retry.
func (s *Server) jobRetryBudget() int {
	if s.chaos != nil {
		return s.chaos.Retries()
	}
	return 0
}

// runJobResilient executes one async job with per-stage resilience:
// injected panics are contained into job failures, and transient faults are
// retried with seeded exponential backoff up to the retry budget. The
// backoff seed derives from the job ID, so a chaos run's retry schedule
// replays exactly.
func (s *Server) runJobResilient(ctx context.Context, j *job) ([]byte, error) {
	budget := s.jobRetryBudget()
	seed := fault.SeedFor("job", j.id)
	for attempt := 0; ; attempt++ {
		result, err := s.runJobOnce(ctx, j, attempt)
		if err == nil || !fault.IsTransient(err) || attempt >= budget || ctx.Err() != nil {
			return result, err
		}
		s.jobRetries.Inc()
		s.log.Info("retrying faulted job", "job", j.id, "attempt", attempt, "err", err.Error())
		fault.Sleep(fault.BackoffDelay(retryBase, time.Second, seed, attempt))
	}
}

// runJobOnce is a single job attempt: chaos consultation at the job seam,
// then the analysis through the serving ladder, with panics contained into
// errors that preserve the fault coordinate (errors.As sees through the
// containment). The result is the canonical /v1/analyze body.
func (s *Server) runJobOnce(ctx context.Context, j *job, attempt int) (result []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok {
				err = fmt.Errorf("server: job %s panicked: %w", j.id, e)
			} else {
				err = fmt.Errorf("server: job %s panicked: %v", j.id, r)
			}
			result = nil
		}
	}()
	if s.chaos != nil {
		coord := fault.Coord{Site: fault.SiteJob, Name: j.req.Benchmark, Rep: j.seq}
		switch kind := s.chaos.At(coord, attempt); kind {
		case fault.Panic:
			s.faultsInjected.With(string(fault.SiteJob), kind.String()).Inc()
			panic(&fault.Fault{Kind: kind, Coord: coord, Attempt: attempt})
		case fault.Transient:
			s.faultsInjected.With(string(fault.SiteJob), kind.String()).Inc()
			return nil, &fault.Fault{Kind: kind, Coord: coord, Attempt: attempt}
		case fault.Slow:
			s.faultsInjected.With(string(fault.SiteJob), kind.String()).Inc()
			fault.Sleep(s.chaos.Delay(coord))
		}
	}
	ep, err := analysisEndpoint[analysis.Request](s, "")(j.req)
	if err != nil {
		return nil, err
	}
	body, _, err := s.serve(ctx, ep, false)
	return body, err
}

// Run listens on cfg.Addr and serves until ctx is cancelled, then shuts
// down gracefully: HTTP connections drain and queued/running jobs finish,
// both within cfg.ShutdownTimeout; past the deadline running pipelines are
// hard-cancelled. Run returns nil on a clean (even if forced) shutdown.
func (s *Server) Run(ctx context.Context) error {
	if err := s.cfg.Validate(); err != nil {
		return err
	}
	ln := s.cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", s.cfg.Addr)
		if err != nil {
			return err
		}
	}
	s.addrMu.Lock()
	s.boundAddr = ln.Addr()
	s.addrMu.Unlock()
	close(s.ready)
	s.log.Info("listening", "addr", ln.Addr().String())

	// jobCtx outlives ctx so jobs can drain after the stop signal; it is
	// cancelled only when the drain deadline passes.
	jobCtx, cancelJobs := context.WithCancel(context.Background())
	defer cancelJobs()
	s.startJobWorkers(jobCtx)

	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		cancelJobs()
		return err
	case <-ctx.Done():
	}

	s.log.Info("shutting down", "timeout", s.cfg.ShutdownTimeout)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownTimeout)
	defer cancel()
	shutdownErr := srv.Shutdown(shutdownCtx)
	if drained := s.jobs.drain(shutdownCtx); !drained {
		s.log.Warn("job drain deadline exceeded; cancelling running jobs")
		cancelJobs()
		s.jobs.drain(context.Background())
	}
	if shutdownErr != nil {
		s.log.Warn("connection drain incomplete", "err", shutdownErr)
	}
	s.log.Info("shutdown complete")
	return nil
}
