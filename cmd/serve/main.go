// Command serve runs eventlensd, the HTTP/JSON daemon serving the full
// event-analysis pipeline as an API: synchronous analysis endpoints, an
// async job queue over a bounded worker pool, an LRU+singleflight result
// cache, and self-observability (/healthz, Prometheus-format /metrics).
//
// Usage:
//
//	eventlensd -addr :8080 -workers 8
//
// Endpoints:
//
//	GET    /healthz                  liveness
//	GET    /metrics                  Prometheus text-format metrics
//	GET    /v1/platforms             simulated platforms (built-in + -platform-dir)
//	GET    /v1/benchmarks            CAT benchmark registry
//	POST   /v1/analyze               run the pipeline (cached)
//	POST   /v1/events/validate       event-trust validation (cached)
//	POST   /v1/matrix                cross-architecture composability matrix (cached)
//	POST   /v1/metrics/define        solve one signature against an analysis (cached)
//	POST   /v1/events/explain        decode raw events in basis vocabulary (cached)
//	GET    /v1/presets/{benchmark}   PAPI-style preset definitions (cached)
//	POST   /v1/jobs                  enqueue an async analysis
//	GET    /v1/jobs/{id}             poll job status/result
//	DELETE /v1/jobs/{id}             cancel a queued or running job
//
// Analyze, define, explain and jobs take internal/analysis requests, whose
// optional "platform" field is `analyze -platform`. -platform-dir loads
// *.pdef definitions into the one platform registry every endpoint reads,
// as the CLIs' flag does.
//
// The process shuts down gracefully on SIGINT/SIGTERM: in-flight requests
// and queued jobs drain within -shutdown-timeout, then it exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"github.com/perfmetrics/eventlens/internal/cli"
	"github.com/perfmetrics/eventlens/internal/server"
)

func main() {
	cli.Main("eventlensd", run)
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("eventlensd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address (host:port; port 0 picks an ephemeral port)")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "async job worker pool size")
	pipelineWorkers := fs.Int("pipeline-workers", 0, "per-run pipeline worker pool size (0 = GOMAXPROCS, 1 = serial; results are identical either way)")
	queueDepth := fs.Int("queue", 0, "async job queue depth (default 4x workers)")
	cacheSize := fs.Int("cache-size", 64, "entries of the result cache and of the analysis cache (LRU each), and finished jobs kept for polling (at least queue depth + workers)")
	jobTimeout := fs.Duration("job-timeout", time.Minute, "per-job pipeline timeout")
	shutdownTimeout := fs.Duration("shutdown-timeout", 10*time.Second, "drain deadline on SIGINT/SIGTERM")
	maxBody := fs.Int64("max-body", 1<<20, "maximum request body bytes")
	chaos := fs.String("chaos", "", "deterministic fault-injection spec for daemon seams, e.g. seed=7,http503=0.1,transient=0.2,retries=3; retries= bounds async job re-runs (empty = off)")
	storeDir := fs.String("store-dir", "", "persistent result-store directory; cached responses survive restarts (empty = off)")
	platformDir := fs.String("platform-dir", "", "load extra platform definitions (*.pdef) into the registry (empty = built-ins only)")
	peers := fs.String("peers", "", "comma-separated base URLs of every replica in the serving tier, including this one (empty = single replica)")
	selfURL := fs.String("self-url", "", "this replica's own base URL as listed in -peers")
	maxSync := fs.Int("max-sync", 0, "concurrent synchronous analyses admitted before 429 (0 = 4x GOMAXPROCS)")
	logJSON := fs.Bool("log-json", false, "emit logs as JSON instead of text")
	if err := cli.ParseFlags(fs, args); err != nil {
		return err
	}

	cfg := server.Config{
		Addr:            *addr,
		Workers:         *workers,
		PipelineWorkers: *pipelineWorkers,
		QueueDepth:      *queueDepth,
		CacheSize:       *cacheSize,
		JobTimeout:      *jobTimeout,
		ShutdownTimeout: *shutdownTimeout,
		MaxBodyBytes:    *maxBody,
		Chaos:           *chaos,
		StoreDir:        *storeDir,
		PlatformDir:     *platformDir,
		SelfURL:         *selfURL,
		MaxSyncCompute:  *maxSync,
	}
	if *peers != "" {
		cfg.Peers = strings.Split(*peers, ",")
	}
	// Reject flag typos like -workers=-4 before binding a socket, with the
	// usage exit status rather than a runtime failure.
	if err := cfg.Validate(); err != nil {
		return cli.Usagef("%v", err)
	}

	var handler slog.Handler = slog.NewTextHandler(stderr, nil)
	if *logJSON {
		handler = slog.NewJSONHandler(stderr, nil)
	}
	logger := slog.New(handler)
	cfg.Logger = logger

	srv, err := server.New(cfg)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Announce the bound address on stdout so scripts (and the e2e smoke
	// test) can find an ephemeral port.
	go func() {
		if a, err := srv.WaitAddr(ctx); err == nil {
			fmt.Fprintf(stdout, "eventlensd listening on http://%s\n", a)
		}
	}()

	if err := srv.Run(ctx); err != nil {
		logger.Error("server failed", "err", err)
		return err
	}
	return nil
}
