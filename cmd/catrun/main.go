// Command catrun executes one CAT benchmark on its simulated platform and
// writes the raw-event measurements to a JSON file (optionally gzipped) for
// offline analysis with cmd/analyze.
//
// Usage:
//
//	catrun -bench cpu-flops -out cpu-flops.json.gz [-reps 5] [-threads 1]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"github.com/perfmetrics/eventlens/internal/analysis"
	"github.com/perfmetrics/eventlens/internal/catio"
	"github.com/perfmetrics/eventlens/internal/cli"
	"github.com/perfmetrics/eventlens/internal/machine"
	"github.com/perfmetrics/eventlens/internal/suite"
)

func main() {
	cli.Main("catrun", run)
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("catrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchName := fs.String("bench", "", "benchmark to run: "+strings.Join(suite.Names(), ", "))
	out := fs.String("out", "", "output path (.json or .json.gz)")
	reps := fs.Int("reps", 0, "repetitions (default: benchmark-specific)")
	threads := fs.Int("threads", 0, "measuring threads (default: benchmark-specific)")
	list := fs.Bool("list", false, "list available benchmarks and exit")
	csvOut := fs.String("csv", "", "also export measurements as CSV to this path")
	workers := fs.Int("workers", 0, "collection workers (0 means GOMAXPROCS, 1 runs serially on one goroutine)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the collection to this path")
	memProfile := fs.String("memprofile", "", "write a heap profile taken after collection to this path")
	if err := cli.ParseFlags(fs, args); err != nil {
		return err
	}

	if *list {
		for _, b := range suite.All() {
			fmt.Fprintf(stdout, "%-10s %s (Table %s, Figure %s)\n", b.Name, b.Description, b.MetricTable, b.Figure)
		}
		return nil
	}
	if *benchName == "" || *out == "" {
		fs.Usage()
		return &cli.UsageError{Err: fmt.Errorf("missing -bench or -out"), Quiet: true}
	}
	if *reps < 0 {
		return cli.Usagef("reps must be >= 1 (0 means the benchmark default), got %d", *reps)
	}
	if *threads < 0 {
		return cli.Usagef("threads must be >= 1 (0 means the benchmark default), got %d", *threads)
	}
	reg, err := machine.NewRegistry()
	if err != nil {
		return err
	}
	id, err := analysis.Request{Benchmark: *benchName}.Resolve(reg, *workers)
	if errors.Is(err, analysis.ErrInvalid) {
		return &cli.UsageError{Err: err}
	}
	if err != nil {
		return err
	}
	// A given -reps or -threads replaces the benchmark's default, then the
	// run is checked by the rule Resolve applies to a request's run.
	if *reps > 0 {
		id.Run.Reps = *reps
	}
	if *threads > 0 {
		id.Run.Threads = *threads
	}
	if err := id.Run.Validate(); err != nil {
		return &cli.UsageError{Err: err}
	}
	fmt.Fprintf(stderr, "catrun: running %s on %s (%d events, %d reps, %d threads)\n",
		id.Bench.Name, id.Platform.Name, len(id.Platform.Events), id.Run.Reps, id.Run.Threads)
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("catrun: cpu profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	set, err := id.Collect(context.Background())
	if err != nil {
		return err
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		runtime.GC() // settle the heap so the profile shows retained memory
		if err := pprof.WriteHeapProfile(f); err != nil {
			_ = f.Close()
			return fmt.Errorf("catrun: heap profile: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "catrun: wrote heap profile to %s\n", *memProfile)
	}
	if err := catio.WriteFile(*out, set); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "catrun: wrote %d events x %d points to %s\n", len(set.Order), len(set.PointNames), *out)
	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := catio.WriteCSV(f, set); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "catrun: wrote CSV export to %s\n", *csvOut)
	}
	return nil
}
