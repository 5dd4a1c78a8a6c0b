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
// The flags build the analysis request eventlensd serves
// (internal/analysis): -bench and -platform are its benchmark and platform,
// -workers its default worker count, and -minimal, -tau and -alpha override
// the resolved run and configuration. So `analyze -bench b -platform p`
// prints the report field of /v1/analyze {"benchmark":b,"platform":p}.
// -platform picks any class-matched platform from the registry and
// -platform-dir overlays extra *.pdef definitions; both apply only when
// collecting (they cannot be combined with -in).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"

	"github.com/perfmetrics/eventlens/internal/analysis"
	"github.com/perfmetrics/eventlens/internal/catio"
	"github.com/perfmetrics/eventlens/internal/cli"
	"github.com/perfmetrics/eventlens/internal/core"
	"github.com/perfmetrics/eventlens/internal/machine"
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
	if *workersFlag < 0 {
		return cli.Usagef("workers must be >= 0 (0 means GOMAXPROCS), got %d", *workersFlag)
	}
	if *in != "" && (*platformName != "" || *platformDir != "") {
		return cli.Usagef("-platform and -platform-dir select a collection target; they cannot be combined with -in")
	}
	reg, err := machine.NewRegistry(*platformDir)
	if err != nil {
		return err
	}
	id, err := analysis.Request{Benchmark: *benchName, Platform: *platformName}.Resolve(reg, *workersFlag)
	if err != nil {
		return err
	}
	id.Run.MinimalKernels = *minimal
	if *tau > 0 {
		id.Config.Tau = *tau
	}
	if *alpha > 0 {
		id.Config.Alpha = *alpha
	}

	ctx := context.Background()
	var prof *core.NoiseProfile
	if *in != "" {
		set, err := catio.ReadFile(*in)
		if err != nil {
			return err
		}
		if set.Benchmark != id.Bench.Name {
			return fmt.Errorf("measurement file holds %q data, benchmark is %q", set.Benchmark, id.Bench.Name)
		}
		prof, err = id.ProfileSet(set)
		if err != nil {
			return err
		}
	} else if prof, err = id.Profile(ctx); err != nil {
		return err
	}
	if *autoTau {
		// Pick tau from the widest gap in the variability spectrum, which
		// does not depend on tau.
		s := core.SuggestTau(prof.Threshold(id.Config.Tau).Variabilities)
		fmt.Fprintf(stdout, "auto tau: %.3e (gap of %.1f decades, %d events below, %d above)\n",
			s.Tau, s.GapDecades, s.Below, s.Above)
		id.Config.Tau = s.Tau
	}
	a, err := id.Analyze(ctx, prof)
	if err != nil {
		return err
	}
	if *explain != "" {
		resp, err := a.Explain(*explain)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "event explanations (in the basis:", resp.Basis, "):")
		for _, e := range resp.Explanations {
			fmt.Fprintln(stdout, " ", e.Text)
		}
		fmt.Fprintln(stdout)
	}
	if *sensitivity {
		sweep := core.DecadeSweep(1e-5, 1e-1, 9)
		sens, err := core.AlphaSensitivity(a.Result.Projection.X, a.Result.Projection.Order, sweep)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, sens)
	}

	fmt.Fprint(stdout, a.Report())
	roundTol := id.Config.RoundTol
	if *rounded {
		fmt.Fprintln(stdout)
		roundedDefs := make([]*core.MetricDefinition, len(a.Defs))
		for i, d := range a.Defs {
			roundedDefs[i] = d.Rounded(roundTol)
		}
		fmt.Fprint(stdout, core.FormatMetricTable("integer-rounded combinations:", roundedDefs))
	}
	if *presets {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, a.Presets())
	}
	if *ratios {
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, "derived ratio metrics:")
		printRatios(stdout, id.Bench.Name, a.Defs, roundTol)
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
