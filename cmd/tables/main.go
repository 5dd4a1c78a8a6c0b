// Command tables regenerates the paper's tables:
//
//	Tables I-IV   — the metric signature tables (pure data)
//	Tables V-VIII — the metric definitions obtained by running the full
//	                pipeline on the simulated platforms
//
// Usage:
//
//	tables             (all tables)
//	tables -table 5    (one table, by number 1-8)
package main

import (
	"context"
	"flag"
	"fmt"
	"io"

	"github.com/perfmetrics/eventlens/internal/analysis"
	"github.com/perfmetrics/eventlens/internal/cli"
	"github.com/perfmetrics/eventlens/internal/core"
	"github.com/perfmetrics/eventlens/internal/machine"
	"github.com/perfmetrics/eventlens/internal/suite"
)

var tableNames = [9]string{"", "I", "II", "III", "IV", "V", "VI", "VII", "VIII"}

func main() {
	cli.Main("tables", run)
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tables", flag.ContinueOnError)
	fs.SetOutput(stderr)
	table := fs.Int("table", 0, "table number 1-8 (0 = all)")
	rounded := fs.Bool("rounded", false, "round metric coefficients to integers (Section VI-D)")
	if err := cli.ParseFlags(fs, args); err != nil {
		return err
	}
	if *table < 0 || *table > 8 {
		return cli.Usagef("table must be 0-8, got %d", *table)
	}
	reg, err := machine.NewRegistry()
	if err != nil {
		return err
	}
	// Signature tables come straight from the suite; metric tables are the
	// definitions of each benchmark's default analysis. Benchmarks are
	// ordered so benchmark i produces signature table i+1 and metric table
	// i+5.
	for i, bench := range suite.All() {
		sigTable := i + 1
		metTable := i + 5
		if *table == 0 || *table == sigTable {
			title := fmt.Sprintf("Table %s: %s metric signatures", tableNames[sigTable], bench.Name)
			fmt.Fprint(stdout, core.FormatSignatureTable(title, bench.BasisSymbols, bench.Signatures))
			fmt.Fprintln(stdout)
		}
		if *table == 0 || *table == metTable {
			a, err := analysis.Run(context.Background(), reg, analysis.Request{Benchmark: bench.Name}, 0)
			if err != nil {
				return fmt.Errorf("%s: %v", bench.Name, err)
			}
			defs := a.Defs
			if *rounded {
				for j, d := range defs {
					defs[j] = d.Rounded(bench.Config.RoundTol)
				}
			}
			title := fmt.Sprintf("Table %s: %s metrics from raw events", tableNames[metTable], bench.Name)
			fmt.Fprint(stdout, core.FormatMetricTable(title, defs))
			fmt.Fprintln(stdout)
		}
	}
	return nil
}
