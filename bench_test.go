// Benchmark harness: one testing.B benchmark per table and figure of the
// paper, plus ablations of the design choices called out in DESIGN.md.
//
// Tables I-IV are signature/basis constructions; Tables V-VIII run the
// metric-definition stage against pre-collected measurements; Figures 2a-2d
// run the noise analysis; Figure 3 evaluates the cache combinations. The
// Collect* benchmarks measure raw data collection on the simulated
// platforms, and the QRCPAblation benchmarks compare the paper's specialized
// pivoting against classical largest-norm pivoting on the same input.
package eventlens_test

import (
	"context"
	"sync/atomic"
	"testing"

	"github.com/perfmetrics/eventlens"
	"github.com/perfmetrics/eventlens/internal/cat"
	"github.com/perfmetrics/eventlens/internal/core"
	"github.com/perfmetrics/eventlens/internal/mat"
	"github.com/perfmetrics/eventlens/internal/suite"
)

// collected caches one measurement set + analysis per benchmark so that
// table/figure benchmarks measure the analysis stages, not re-collection.
type collected struct {
	bench suite.Benchmark
	set   *core.MeasurementSet
	basis *core.Basis
	res   *core.Result
}

var collectedCache = map[string]*collected{}

func collect(b *testing.B, name string) *collected {
	b.Helper()
	if c, ok := collectedCache[name]; ok {
		return c
	}
	bench, err := suite.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	set, err := bench.Collect(context.Background(), bench.DefaultRun)
	if err != nil {
		b.Fatal(err)
	}
	basis, err := bench.Basis()
	if err != nil {
		b.Fatal(err)
	}
	pipe := &core.Pipeline{Basis: basis, Config: bench.Config}
	res, err := pipe.Analyze(set)
	if err != nil {
		b.Fatal(err)
	}
	c := &collected{bench: bench, set: set, basis: basis, res: res}
	collectedCache[name] = c
	return c
}

// benchSignatureTable regenerates one signature table (Tables I-IV): basis
// construction, signature validation and rendering.
func benchSignatureTable(b *testing.B, name string) {
	bench, err := suite.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		basis, err := bench.Basis()
		if err != nil {
			b.Fatal(err)
		}
		for _, sig := range bench.Signatures {
			if err := sig.Validate(basis); err != nil {
				b.Fatal(err)
			}
		}
		_ = core.FormatSignatureTable("bench", bench.BasisSymbols, bench.Signatures)
	}
}

func BenchmarkTableI_CPUFlopsSignatures(b *testing.B)  { benchSignatureTable(b, "cpu-flops") }
func BenchmarkTableII_GPUFlopsSignatures(b *testing.B) { benchSignatureTable(b, "gpu-flops") }
func BenchmarkTableIII_BranchSignatures(b *testing.B)  { benchSignatureTable(b, "branch") }
func BenchmarkTableIV_CacheSignatures(b *testing.B)    { benchSignatureTable(b, "dcache") }

// benchMetricTable regenerates one metric table (Tables V-VIII): the full
// analysis pipeline plus least-squares metric definitions, against cached
// measurements.
func benchMetricTable(b *testing.B, name string) {
	c := collect(b, name)
	pipe := &core.Pipeline{Basis: c.basis, Config: c.bench.Config}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := pipe.Analyze(c.set)
		if err != nil {
			b.Fatal(err)
		}
		defs, err := res.DefineMetrics(c.bench.Signatures)
		if err != nil {
			b.Fatal(err)
		}
		if len(defs) != len(c.bench.Signatures) {
			b.Fatal("missing definitions")
		}
	}
}

func BenchmarkTableV_CPUFlopsMetrics(b *testing.B)  { benchMetricTable(b, "cpu-flops") }
func BenchmarkTableVI_GPUFlopsMetrics(b *testing.B) { benchMetricTable(b, "gpu-flops") }
func BenchmarkTableVII_BranchMetrics(b *testing.B)  { benchMetricTable(b, "branch") }
func BenchmarkTableVIII_CacheMetrics(b *testing.B)  { benchMetricTable(b, "dcache") }

// benchFigure2 regenerates one variability figure: the max-RNMSE noise
// analysis over all events, plus the sort.
func benchFigure2(b *testing.B, name string) {
	c := collect(b, name)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report := core.FilterNoise(c.set, c.bench.Config.Tau)
		if len(report.SortedVariabilities()) == 0 {
			b.Fatal("no variabilities")
		}
	}
}

func BenchmarkFigure2a_BranchVariability(b *testing.B)   { benchFigure2(b, "branch") }
func BenchmarkFigure2b_CPUFlopsVariability(b *testing.B) { benchFigure2(b, "cpu-flops") }
func BenchmarkFigure2c_GPUFlopsVariability(b *testing.B) { benchFigure2(b, "gpu-flops") }
func BenchmarkFigure2d_CacheVariability(b *testing.B)    { benchFigure2(b, "dcache") }

// BenchmarkFigure3_CacheApproximations evaluates every cache metric's
// rounded raw-event combination across the sweep and compares it to the
// expanded signature — the computation behind the six panels of Figure 3.
func BenchmarkFigure3_CacheApproximations(b *testing.B) {
	c := collect(b, "dcache")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sig := range core.CacheSignatures() {
			def, err := c.res.DefineMetric(sig)
			if err != nil {
				b.Fatal(err)
			}
			rounded := def.Rounded(c.bench.Config.RoundTol)
			combo, err := rounded.Combine(c.res.Noise.Kept)
			if err != nil {
				b.Fatal(err)
			}
			want, err := c.basis.Expand(sig.Coeffs)
			if err != nil {
				b.Fatal(err)
			}
			if len(combo) != len(want) {
				b.Fatal("length mismatch")
			}
		}
	}
}

// Collection benchmarks: the cost of running each CAT benchmark on its
// simulated platform and measuring the full catalog.
func benchCollect(b *testing.B, name string) {
	bench, err := suite.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	platform, err := bench.NewPlatform()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		freshDCacheSeed(bench)
		if _, err := bench.CollectOn(context.Background(), platform, bench.DefaultRun); err != nil {
			b.Fatal(err)
		}
	}
}

// dcacheSeeds hands every timed dcache collection in the process its own
// DCache.Seed. cachesim memoizes chase results by seed, so a repeated seed
// would time a memo read instead of the chase engine, whose cost does not
// depend on the seed. Seeds are spaced wider than one collection's chain
// seeds (Seed + thread*7919 + point).
var dcacheSeeds atomic.Int64

func freshDCacheSeed(bench suite.Benchmark) {
	if d, ok := bench.Driver.(*cat.DCache); ok {
		d.Seed = dcacheSeeds.Add(1) << 20
	}
}

func BenchmarkCollectCPUFlops(b *testing.B) { benchCollect(b, "cpu-flops") }
func BenchmarkCollectGPUFlops(b *testing.B) { benchCollect(b, "gpu-flops") }
func BenchmarkCollectBranch(b *testing.B)   { benchCollect(b, "branch") }
func BenchmarkCollectDCache(b *testing.B)   { benchCollect(b, "dcache") }

// BenchmarkCollectDCacheWarm times dcache collections served from the chase
// memo: one untimed collection fills it, so what is left is measuring the
// catalog over the memoized ground truth.
func BenchmarkCollectDCacheWarm(b *testing.B) {
	bench, err := suite.ByName("dcache")
	if err != nil {
		b.Fatal(err)
	}
	platform, err := bench.NewPlatform()
	if err != nil {
		b.Fatal(err)
	}
	if _, err := bench.CollectOn(context.Background(), platform, bench.DefaultRun); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.CollectOn(context.Background(), platform, bench.DefaultRun); err != nil {
			b.Fatal(err)
		}
	}
}

// Serial vs Parallel pairs: the same stage pinned to Workers=1 and to
// Workers=GOMAXPROCS. Outputs are byte-identical (determinism_test.go); these
// pairs exist to measure what the worker pool buys on each stage.

func benchCollectWorkers(b *testing.B, name string, workers int) {
	bench, err := suite.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	platform, err := bench.NewPlatform()
	if err != nil {
		b.Fatal(err)
	}
	run := bench.DefaultRun
	run.Workers = workers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		freshDCacheSeed(bench)
		if _, err := bench.CollectOn(context.Background(), platform, run); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCollectSerialCPUFlops(b *testing.B)   { benchCollectWorkers(b, "cpu-flops", 1) }
func BenchmarkCollectParallelCPUFlops(b *testing.B) { benchCollectWorkers(b, "cpu-flops", 0) }
func BenchmarkCollectSerialDCache(b *testing.B)     { benchCollectWorkers(b, "dcache", 1) }
func BenchmarkCollectParallelDCache(b *testing.B)   { benchCollectWorkers(b, "dcache", 0) }

func benchNoiseWorkers(b *testing.B, workers int) {
	c := collect(b, "cpu-flops")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := core.FilterNoiseWithWorkers(c.set, c.bench.Config.Tau, core.MaxRNMSE, workers)
		if len(rep.Variabilities) == 0 {
			b.Fatal("no variabilities")
		}
	}
}

func BenchmarkNoiseFilterSerial(b *testing.B)   { benchNoiseWorkers(b, 1) }
func BenchmarkNoiseFilterParallel(b *testing.B) { benchNoiseWorkers(b, 0) }

func benchBuildX(b *testing.B, workers int) {
	c := collect(b, "cpu-flops")
	noise := c.res.Noise
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proj, err := core.BuildXWorkers(c.basis, noise.Kept, noise.KeptOrder, c.bench.Config.ProjectionTol, workers)
		if err != nil {
			b.Fatal(err)
		}
		if len(proj.Order) == 0 {
			b.Fatal("no projections")
		}
	}
}

func BenchmarkBuildX(b *testing.B)       { benchBuildX(b, 0) }
func BenchmarkBuildXSerial(b *testing.B) { benchBuildX(b, 1) }

// QRCP ablation: the paper's specialized pivoting versus classical
// largest-norm pivoting on the same projected X (the CPU-FLOPs matrix).
// Specialized picks the 8 FP_ARITH events; classical ranks by norm and picks
// scaled aggregates first.
func BenchmarkQRCPAblationSpecialized(b *testing.B) {
	c := collect(b, "cpu-flops")
	x := c.res.Projection.X
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if core.SpecializedQRCP(x, c.bench.Config.Alpha).Rank == 0 {
			b.Fatal("no rank")
		}
	}
}

func BenchmarkQRCPAblationClassical(b *testing.B) {
	c := collect(b, "cpu-flops")
	x := c.res.Projection.X
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if mat.QRCP(x, 0).Rank == 0 {
			b.Fatal("no rank")
		}
	}
}

// Extension benchmarks: the future-work features layered on the paper.

// BenchmarkSectionVE_AlphaSensitivity sweeps alpha over four decades against
// the CPU-FLOPs X (the Section V-E threshold-sensitivity experiment).
func BenchmarkSectionVE_AlphaSensitivity(b *testing.B) {
	c := collect(b, "cpu-flops")
	sweep := core.DecadeSweep(1e-5, 1e-1, 9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.AlphaSensitivity(c.res.Projection.X, c.res.Projection.Order, sweep)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.ConsensusEvents) == 0 {
			b.Fatal("no consensus")
		}
	}
}

// BenchmarkAutoTau measures the automatic threshold selection on a full
// variability spectrum.
func BenchmarkAutoTau(b *testing.B) {
	c := collect(b, "cpu-flops")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := core.SuggestTau(c.res.Noise.Variabilities); s.Tau <= 0 {
			b.Fatal("bad suggestion")
		}
	}
}

// BenchmarkPresetGeneration emits PAPI-style presets for all four metric
// tables.
func BenchmarkPresetGeneration(b *testing.B) {
	var all [][]*core.MetricDefinition
	for _, name := range suite.Names() {
		c := collect(b, name)
		defs, err := c.res.DefineMetrics(c.bench.Signatures)
		if err != nil {
			b.Fatal(err)
		}
		all = append(all, defs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, defs := range all {
			if out := core.FormatPresets(defs, 0.05, 1e-6); len(out) == 0 {
				b.Fatal("empty presets")
			}
		}
	}
}

// Noise-measure ablation: Eq. 4's RNMSE vs the MAD and CV alternatives over
// the same repetition data.
func benchNoiseMeasure(b *testing.B, measure core.NoiseMeasure) {
	c := collect(b, "dcache")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := core.FilterNoiseWith(c.set, c.bench.Config.Tau, measure)
		if len(rep.Variabilities) == 0 {
			b.Fatal("no variabilities")
		}
	}
}

func BenchmarkNoiseMeasureRNMSE(b *testing.B) { benchNoiseMeasure(b, core.MaxRNMSE) }
func BenchmarkNoiseMeasureMAD(b *testing.B)   { benchNoiseMeasure(b, core.MaxPairwiseMAD) }
func BenchmarkNoiseMeasureCV(b *testing.B)    { benchNoiseMeasure(b, core.MaxCV) }

// End-to-end: the public-API path a downstream user takes.
func BenchmarkEndToEndQuickstart(b *testing.B) {
	bench, err := eventlens.BenchmarkByName("branch")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := bench.Analyze(eventlens.DefaultRunConfig())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := res.DefineMetrics(eventlens.BranchSignatures()); err != nil {
			b.Fatal(err)
		}
	}
}
