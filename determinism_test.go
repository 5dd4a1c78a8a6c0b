// Determinism under parallelism: the pipeline's worker pools must not change
// a single byte of output. Measurement noise is seeded purely by
// (platform, event, group, point, rep, thread) coordinates and every parallel
// stage assembles its results in measurement order, so running with one
// worker and with many must produce identical reports — this is what lets
// Workers stay out of the result-cache keys.
package eventlens_test

import (
	"context"
	"testing"

	"github.com/perfmetrics/eventlens/internal/core"
	"github.com/perfmetrics/eventlens/internal/suite"
)

// analysisReport runs one benchmark end to end — collection, noise filter,
// projection, QRCP, metric definition — with the given worker count in both
// the collection and analysis configs, and renders the full report.
func analysisReport(t *testing.T, bench suite.Benchmark, workers int) string {
	t.Helper()
	ctx := context.Background()
	run := bench.DefaultRun
	run.Workers = workers
	set, err := bench.Collect(ctx, run)
	if err != nil {
		t.Fatal(err)
	}
	cfg := bench.Config
	cfg.Workers = workers
	res, err := bench.AnalyzeSet(ctx, set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defs, err := res.DefineMetrics(bench.Signatures)
	if err != nil {
		t.Fatal(err)
	}
	return core.FormatAnalysisReport(res, cfg.ProjectionTol, bench.MetricTable, defs)
}

// TestParallelReportByteIdentical asserts the serial-equivalence guarantee on
// every suite benchmark: Workers=1 (the serial path) and Workers=8 (more
// workers than some hosts have cores, which exercises the queueing paths too)
// render byte-identical analysis reports.
func TestParallelReportByteIdentical(t *testing.T) {
	for _, bench := range suite.All() {
		bench := bench
		t.Run(bench.Name, func(t *testing.T) {
			t.Parallel()
			serial := analysisReport(t, bench, 1)
			parallel := analysisReport(t, bench, 8)
			if serial != parallel {
				t.Fatalf("Workers=1 and Workers=8 reports differ for %s:\n--- serial ---\n%s\n--- parallel ---\n%s",
					bench.Name, serial, parallel)
			}
			if serial == "" {
				t.Fatal("empty report")
			}
		})
	}
}
