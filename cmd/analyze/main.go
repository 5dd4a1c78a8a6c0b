// Command analyze runs the full event-analysis pipeline on a measurement
// file produced by cmd/catrun (or collects measurements itself when given
// -bench instead of -in): noise filtering, expectation-basis projection, the
// specialized QRCP, and least-squares metric definition.
//
// Usage:
//
//	analyze -in cpu-flops.json.gz -bench cpu-flops
//	analyze -bench branch            (collect and analyze in one step)
//	analyze -bench branch -platform graviton   (collect on another platform)
//
// -platform picks any class-matched platform from the registry and
// -platform-dir overlays extra *.pdef definitions; both apply only
// when collecting (they cannot be combined with -in).
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"io"

	"github.com/perfmetrics/eventlens/internal/cat"
	"github.com/perfmetrics/eventlens/internal/catio"
	"github.com/perfmetrics/eventlens/internal/cli"
	"github.com/perfmetrics/eventlens/internal/core"
	"github.com/perfmetrics/eventlens/internal/machine"
	"github.com/perfmetrics/eventlens/internal/suite"
)

func main() {
	cli.Main("analyze", run)
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "measurement file from catrun (optional)")
	benchName := fs.String("bench", "", "benchmark whose basis/thresholds/signatures to use")
	tau := fs.Float64("tau", 0, "override noise threshold tau")
	alpha := fs.Float64("alpha", 0, "override QRCP tolerance alpha")
	rounded := fs.Bool("rounded", false, "also print integer-rounded combinations")
	autoTau := fs.Bool("autotau", false, "select tau automatically from the variability gap")
	sensitivity := fs.Bool("sensitivity", false, "sweep alpha over 1e-5..1e-1 and report selection stability (Section V-E)")
	presets := fs.Bool("presets", false, "emit PAPI-style preset definitions for the composable metrics")
	explain := fs.String("explain", "", "explain what a raw event measures in the benchmark's basis ('all' for every kept event)")
	ratios := fs.Bool("ratios", false, "also derive the benchmark's standard ratio metrics")
	minimal := fs.Bool("minimal", false, "collect only the minimal spanning kernel subset (similarity-clustered points)")
	platformName := fs.String("platform", "", "collect on this platform instead of the benchmark's default (class must match)")
	platformDir := fs.String("platform-dir", "", "load extra platform definitions (*.pdef) from this directory")
	workersFlag := fs.Int("workers", 0, "pipeline worker pool size (0 = GOMAXPROCS, 1 = serial; output is byte-identical either way)")
	if err := cli.ParseFlags(fs, args); err != nil {
		return err
	}

	if *benchName == "" {
		fs.Usage()
		return &cli.UsageError{Err: fmt.Errorf("missing -bench"), Quiet: true}
	}
	bench, err := suite.ByName(*benchName)
	if err != nil {
		return err
	}
	cfg := bench.Config
	if *tau > 0 {
		cfg.Tau = *tau
	}
	if *alpha > 0 {
		cfg.Alpha = *alpha
	}
	if *workersFlag < 0 {
		return cli.Usagef("workers must be >= 0 (0 means GOMAXPROCS), got %d", *workersFlag)
	}
	cfg.Workers = *workersFlag

	var set *core.MeasurementSet
	if *in != "" {
		if *platformName != "" || *platformDir != "" {
			return cli.Usagef("-platform and -platform-dir select a collection target; they cannot be combined with -in")
		}
		set, err = catio.ReadFile(*in)
		if err != nil {
			return err
		}
		if set.Benchmark != bench.Name {
			return fmt.Errorf("measurement file holds %q data, benchmark is %q", set.Benchmark, bench.Name)
		}
	} else {
		runCfg := cat.RunConfig(bench.DefaultRun)
		runCfg.Workers = *workersFlag
		runCfg.MinimalKernels = *minimal
		reg, err := machine.NewRegistry(*platformDir)
		if err != nil {
			return err
		}
		// Without -platform, collect on the benchmark's default platform as
		// the registry defines it (a platform dir may override it).
		platform, err := reg.New(cmp.Or(*platformName, bench.Platform))
		if err != nil {
			return err
		}
		set, err = bench.CollectOn(context.Background(), platform, runCfg)
		if err != nil {
			return err
		}
	}

	// The basis must match the set's points: a -minimal collection (or a
	// reduced measurement file) analyzes against the matching basis rows.
	basis, err := bench.BasisFor(set)
	if err != nil {
		return err
	}
	if err := set.Validate(); err != nil {
		return err
	}
	// One noise pass serves both the tau suggestion and the analysis.
	prof := core.ProfileNoise(set, cfg.Workers)
	if *autoTau {
		// Pick tau from the widest gap in the variability spectrum, which
		// does not depend on tau.
		s := core.SuggestTau(prof.Threshold(cfg.Tau).Variabilities)
		fmt.Fprintf(stdout, "auto tau: %.3e (gap of %.1f decades, %d events below, %d above)\n",
			s.Tau, s.GapDecades, s.Below, s.Above)
		cfg.Tau = s.Tau
	}
	pipe := &core.Pipeline{Basis: basis, Config: cfg}
	res, err := pipe.AnalyzeProfile(context.Background(), prof)
	if err != nil {
		return err
	}
	if *explain != "" {
		fmt.Fprintln(stdout, "event explanations (in the basis:", basis.Names, "):")
		names := res.Noise.KeptOrder
		if *explain != "all" {
			names = []string{*explain}
		}
		explanations, err := core.ExplainKept(basis, res.Noise, cfg.Alpha, cfg.ProjectionTol)
		if err != nil {
			return err
		}
		for _, name := range names {
			e, ok := explanations[name]
			if !ok {
				return fmt.Errorf("event %q not among the kept events (noisy, all-zero, or unknown)", name)
			}
			fmt.Fprintln(stdout, " ", e)
		}
		fmt.Fprintln(stdout)
	}
	if *sensitivity {
		sweep := core.DecadeSweep(1e-5, 1e-1, 9)
		sens, err := core.AlphaSensitivity(res.Projection.X, res.Projection.Order, sweep)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, sens)
	}

	defs, err := res.DefineMetrics(bench.Signatures)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, core.FormatAnalysisReport(res, cfg.ProjectionTol, bench.MetricTable, defs))
	if *rounded {
		fmt.Fprintln(stdout)
		roundedDefs := make([]*core.MetricDefinition, len(defs))
		for i, d := range defs {
			roundedDefs[i] = d.Rounded(cfg.RoundTol)
		}
		fmt.Fprint(stdout, core.FormatMetricTable("integer-rounded combinations:", roundedDefs))
	}
	if *presets {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, core.PresetFile(set.Platform, bench.Name, defs, cfg.RoundTol))
	}
	if *ratios {
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, "derived ratio metrics:")
		printRatios(stdout, bench.Name, defs, cfg.RoundTol)
	}
	return nil
}

// ratioSpecs names the standard ratio metrics per benchmark, as
// numerator/denominator metric names from the benchmark's signature table.
var ratioSpecs = map[string][][3]string{
	"branch": {
		{"Branch Misprediction Ratio", "Mispredicted Branches.", "Conditional Branches Retired."},
		{"Taken Ratio", "Conditional Branches Taken.", "Conditional Branches Retired."},
	},
	"dcache": {
		{"L1 Miss Ratio", "L1 Misses.", "L1 Reads."},
		{"L2 Miss Ratio", "L2 Misses.", "L1 Misses."},
	},
	"cpu-flops": {
		{"DP Fraction of Ops", "DP Ops.", "SP Ops."},
	},
}

// printRatios derives and renders the benchmark's standard ratio metrics.
func printRatios(w io.Writer, benchName string, defs []*core.MetricDefinition, roundTol float64) {
	byName := map[string]*core.MetricDefinition{}
	for _, d := range defs {
		byName[d.Metric] = d.Rounded(roundTol)
	}
	specs, ok := ratioSpecs[benchName]
	if !ok {
		fmt.Fprintln(w, "  (no standard ratios defined for this benchmark)")
		return
	}
	for _, spec := range specs {
		num, den := byName[spec[1]], byName[spec[2]]
		ratio, err := core.NewRatioMetric(spec[0], num, den)
		if err != nil {
			fmt.Fprintf(w, "  %s: %v\n", spec[0], err)
			continue
		}
		fmt.Fprintf(w, "  %s\n    events needed: %d\n", ratio, len(ratio.Events()))
	}
}
