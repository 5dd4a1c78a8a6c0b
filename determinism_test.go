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

	"github.com/perfmetrics/eventlens/internal/cat"
	"github.com/perfmetrics/eventlens/internal/core"
	"github.com/perfmetrics/eventlens/internal/machine"
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

// TestStreamEventsWorkersDeterministic pins the streaming collector to the
// same guarantee: per-group fan-out must yield the same events with the same
// vectors in the same order as the serial walk.
func TestStreamEventsWorkersDeterministic(t *testing.T) {
	bench, err := suite.ByName("branch")
	if err != nil {
		t.Fatal(err)
	}
	platform, err := machine.BuiltinPlatform(bench.Platform)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := bench.GroundTruth(bench.DefaultRun)
	if err != nil {
		t.Fatal(err)
	}
	collect := func(workers int) (names []string, vecs [][][]float64) {
		cfg := cat.RunConfig{Reps: 3, Threads: 1, Workers: workers}
		src := cat.StreamEvents(platform, truth, cfg)
		err := src(func(name string, reps [][]float64) error {
			names = append(names, name)
			vecs = append(vecs, reps)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return names, vecs
	}
	n1, v1 := collect(1)
	n8, v8 := collect(8)
	if len(n1) == 0 || len(n1) != len(n8) {
		t.Fatalf("event counts differ: %d vs %d", len(n1), len(n8))
	}
	for i := range n1 {
		if n1[i] != n8[i] {
			t.Fatalf("event %d: order differs: %q vs %q", i, n1[i], n8[i])
		}
		for r := range v1[i] {
			for p := range v1[i][r] {
				if v1[i][r][p] != v8[i][r][p] {
					t.Fatalf("event %q rep %d point %d: %v vs %v", n1[i], r, p, v1[i][r][p], v8[i][r][p])
				}
			}
		}
	}
}
