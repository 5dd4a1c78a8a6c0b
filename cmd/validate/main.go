// Command validate scores every raw event of a platform's catalog against
// its documented semantics using the CAT benchmarks' known-exact kernels as
// ground truth, printing a per-event trust report (DESIGN.md §14).
//
// Usage:
//
//	validate -platform spr
//	validate -platform mi250x -json
//	validate -platform spr -bench branch,dcache -fit-tol 1e-3
//	validate -platform-dir defs -platform custom -json   (as eventlensd -platform-dir defs)
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strings"

	"github.com/perfmetrics/eventlens/internal/cli"
	"github.com/perfmetrics/eventlens/internal/machine"
	"github.com/perfmetrics/eventlens/internal/validate"
)

func main() {
	cli.Main("validate", run)
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("validate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	platform := fs.String("platform", "", "platform catalog to validate: any registered platform (spr, mi250x, h100, ...)")
	platformDir := fs.String("platform-dir", "", "load extra platform definitions (*.pdef) from this directory")
	benches := fs.String("bench", "", "comma-separated benchmark subset (default: every benchmark of the platform)")
	jsonOut := fs.Bool("json", false, "emit the canonical JSON envelope instead of text (byte-identical to /v1/events/validate)")
	workersFlag := fs.Int("workers", 0, "collection worker pool size (0 = GOMAXPROCS, 1 = serial; output is byte-identical either way)")
	faults := fs.String("faults", "", "deterministic fault injection spec, e.g. seed=7,transient=0.05")
	noisyTau := fs.Float64("noisy-tau", 0, "override the noisy-verdict MaxRNMSE threshold")
	fitTol := fs.Float64("fit-tol", 0, "override the valid/scaled fit-residual tolerance")
	scaleTol := fs.Float64("scale-tol", 0, "override the |scale-1| tolerance separating valid from scaled")
	derivedCos := fs.Float64("derived-cos", 0, "override the minimum cosine for the derived verdict")
	if err := cli.ParseFlags(fs, args); err != nil {
		return err
	}

	if *platform == "" {
		fs.Usage()
		return &cli.UsageError{Err: fmt.Errorf("missing -platform"), Quiet: true}
	}
	if *workersFlag < 0 {
		return cli.Usagef("workers must be >= 0 (0 means GOMAXPROCS), got %d", *workersFlag)
	}
	// A given tolerance is applied, then checked by the rule a request's
	// tolerances pass: it is never ignored.
	tol := validate.DefaultTolerances()
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "noisy-tau":
			tol.NoisyTau = *noisyTau
		case "fit-tol":
			tol.FitTol = *fitTol
		case "scale-tol":
			tol.ScaleTol = *scaleTol
		case "derived-cos":
			tol.DerivedCos = *derivedCos
		}
	})
	if err := tol.Validate(); err != nil {
		return &cli.UsageError{Err: err}
	}

	req := validate.Request{
		Platform:   *platform,
		Workers:    *workersFlag,
		Faults:     *faults,
		Tolerances: &tol,
	}
	if *benches != "" {
		req.Benchmarks = strings.Split(*benches, ",")
	}
	reg, err := machine.NewRegistry(*platformDir)
	if err != nil {
		return err
	}
	report, err := validate.RunIn(context.Background(), reg, req)
	if err != nil {
		return err
	}
	if *jsonOut {
		body, err := validate.NewEnvelope(report).Encode()
		if err != nil {
			return err
		}
		_, err = stdout.Write(body)
		return err
	}
	_, err = io.WriteString(stdout, report.Format())
	return err
}
