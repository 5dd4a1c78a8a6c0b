// Command figures regenerates the paper's figures as ASCII plots plus CSV
// data:
//
//	Figure 2a-2d — sorted max-RNMSE event variabilities per benchmark, with
//	               the tau threshold line
//	Figure 3     — data-cache metric approximations: raw-event combinations
//	               vs. metric signatures across the pointer-chase sweep
//
// Usage:
//
//	figures                 (all figures)
//	figures -fig 2a         (one variability figure)
//	figures -fig 3          (the cache approximation figures)
//	figures -fig matrix     (the cross-architecture composability matrix)
//	figures -csv            (emit CSV instead of ASCII plots)
//
// The matrix mode runs the full pipeline per (platform, benchmark) pair over
// every registered platform — extend the set with -platform-dir — and prints
// the paper-style composability grid; -json emits the canonical envelope
// byte-identical to the daemon's /v1/matrix response.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"

	"github.com/perfmetrics/eventlens/internal/analysis"
	"github.com/perfmetrics/eventlens/internal/cli"
	"github.com/perfmetrics/eventlens/internal/cpusim"
	"github.com/perfmetrics/eventlens/internal/machine"
	"github.com/perfmetrics/eventlens/internal/matrix"
	"github.com/perfmetrics/eventlens/internal/suite"
	"github.com/perfmetrics/eventlens/internal/textplot"
)

func main() {
	cli.Main("figures", run)
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "", "figure to regenerate: 1, 2a, 2b, 2c, 2d, 3, matrix (default all but matrix)")
	csv := fs.Bool("csv", false, "emit CSV data instead of ASCII plots")
	platformDir := fs.String("platform-dir", "", "matrix: load extra platform definitions (*.pdef) from this directory")
	platforms := fs.String("platforms", "", "matrix: comma-separated platforms (default every registered platform)")
	benchmarks := fs.String("benchmarks", "", "matrix: comma-separated benchmarks (default every class-matched benchmark)")
	minimal := fs.Bool("minimal", false, "matrix: collect with minimal spanning kernel selection")
	faults := fs.String("faults", "", "matrix: deterministic fault-injection spec, e.g. seed=7,transient=0.2")
	jsonOut := fs.Bool("json", false, "matrix: emit the canonical JSON envelope instead of the text grid")
	if err := cli.ParseFlags(fs, args); err != nil {
		return err
	}

	if *fig == "matrix" {
		return figureMatrix(stdout, *platformDir, *platforms, *benchmarks, *minimal, *faults, *jsonOut)
	}
	if *fig == "" || *fig == "1" {
		figure1(stdout)
	}
	reg, err := machine.NewRegistry()
	if err != nil {
		return err
	}
	for _, bench := range suite.All() {
		if *fig == "" || *fig == bench.Figure {
			if err := figure2(stdout, reg, bench, *csv); err != nil {
				return err
			}
		}
	}
	if *fig == "" || *fig == "3" {
		if err := figure3(stdout, reg, *csv); err != nil {
			return err
		}
	}
	return nil
}

// figureMatrix renders the cross-architecture composability matrix: the
// full pipeline per class-matched (platform, benchmark) pair, one verdict
// and backward error per metric cell. The -json envelope is byte-identical
// to the daemon's /v1/matrix response for the same request.
func figureMatrix(w io.Writer, platformDir, platforms, benchmarks string, minimal bool, faults string, jsonOut bool) error {
	reg, err := machine.NewRegistry(platformDir)
	if err != nil {
		return err
	}
	req := matrix.Request{
		Platforms:  cli.SplitList(platforms),
		Benchmarks: cli.SplitList(benchmarks),
		Minimal:    minimal,
		Faults:     faults,
	}
	report, err := matrix.Run(context.Background(), reg, req)
	if err != nil {
		return err
	}
	if jsonOut {
		body, err := matrix.NewEnvelope(report).Encode()
		if err != nil {
			return err
		}
		_, err = w.Write(body)
		return err
	}
	_, err = io.WriteString(w, report.Format())
	return err
}

// figure1 renders the structure of the K_SCAL microkernel (the paper's
// Figure 1): three loop blocks with known instruction counts.
func figure1(w io.Writer) {
	spec := cpusim.FlopsKernelSpec{Prec: cpusim.DP, Width: cpusim.Scalar}
	kernel := cpusim.BuildFlopsKernel(spec)
	exp := cpusim.ExpectedFPInstrs(spec)
	fmt.Fprintf(w, "Figure 1: double-precision scalar floating-point kernel, K_SCAL (%s)\n", kernel.Name)
	for i, block := range kernel.Blocks {
		fmt.Fprintf(w, "  +--------------------------------------+\n")
		fmt.Fprintf(w, "  | Block x%-3d times                     |\n", block.Trips)
		fmt.Fprintf(w, "  | Body: %d FP instrs -> %3.0f DP scalar   |\n", len(block.Body), exp[i])
		fmt.Fprintf(w, "  |       instructions per loop          |\n")
		fmt.Fprintf(w, "  +--------------------------------------+\n")
	}
	fmt.Fprintln(w)
}

// figure2 renders one panel of Figure 2: the sorted event variabilities of
// the benchmark's default analysis, its noise profile cut at its tau.
func figure2(w io.Writer, reg *machine.Registry, bench suite.Benchmark, csv bool) error {
	id, err := analysis.Request{Benchmark: bench.Name}.Resolve(reg, 0)
	if err != nil {
		return err
	}
	prof, err := id.Profile(context.Background())
	if err != nil {
		return err
	}
	sorted := prof.Threshold(id.Config.Tau).SortedVariabilities()
	title := fmt.Sprintf("Figure %s: sorted event variabilities (CAT %s benchmark, %s)",
		bench.Figure, bench.Name, prof.Platform)
	if csv {
		fmt.Fprintln(w, title)
		fmt.Fprintln(w, "index,event,max_rnmse")
		for i, v := range sorted {
			fmt.Fprintf(w, "%d,%s,%g\n", i, v.Event, v.MaxRNMSE)
		}
		fmt.Fprintln(w)
		return nil
	}
	values := make([]float64, len(sorted))
	for i, v := range sorted {
		values[i] = v.MaxRNMSE
	}
	fmt.Fprint(w, textplot.LogScatter(title, values, id.Config.Tau, 70, 16))
	fmt.Fprintln(w)
	return nil
}

// figure3 renders the six cache-metric approximation panels.
func figure3(w io.Writer, reg *machine.Registry, csv bool) error {
	a, err := analysis.Run(context.Background(), reg, analysis.Request{Benchmark: "dcache"}, 0)
	if err != nil {
		return err
	}
	basis, err := a.ID.Bench.Basis()
	if err != nil {
		return err
	}
	labels := make([]string, len(basis.PointNames))
	copy(labels, basis.PointNames)
	for i, def := range a.Defs {
		sig := a.ID.Bench.Signatures[i]
		rounded := def.Rounded(a.ID.Config.RoundTol)
		combo, err := rounded.Combine(a.Result.Noise.Kept)
		if err != nil {
			return err
		}
		want, err := basis.Expand(sig.Coeffs)
		if err != nil {
			return err
		}
		title := fmt.Sprintf("Figure 3: %s from raw events (CAT data cache benchmark)", sig.Name)
		if csv {
			fmt.Fprintln(w, title)
			fmt.Fprintln(w, "point,combination,signature")
			for i := range combo {
				fmt.Fprintf(w, "%s,%g,%g\n", labels[i], combo[i], want[i])
			}
			fmt.Fprintln(w)
			continue
		}
		fmt.Fprint(w, textplot.Series(title, combo, want, labels, 70, 10))
		fmt.Fprintf(w, "  combination: ")
		for i, t := range rounded.NonZeroTerms() {
			if i > 0 {
				fmt.Fprintf(w, " + ")
			}
			fmt.Fprintf(w, "%g x %s", t.Coeff, t.Event)
		}
		fmt.Fprintf(w, "   (error %.3g)\n\n", def.BackwardError)
	}
	return nil
}
