// Command monitor is a miniature profiler built on auto-derived metric
// presets — the downstream consumer the paper's introduction motivates.
// It derives (or loads) PAPI-style presets for the simulated Sapphire
// Rapids, runs a workload on the CPU simulator, programs only the raw
// events the presets reference (in constraint-aware multiplexing rounds),
// and reports the metric values.
//
// Usage:
//
//	monitor -workload triad
//	monitor -workload mixed -n 1000
//	monitor -workload stencil -presets presets.txt   (use saved presets)
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/perfmetrics/eventlens/internal/analysis"
	"github.com/perfmetrics/eventlens/internal/cat"
	"github.com/perfmetrics/eventlens/internal/cli"
	"github.com/perfmetrics/eventlens/internal/core"
	"github.com/perfmetrics/eventlens/internal/cpusim"
	"github.com/perfmetrics/eventlens/internal/machine"
)

func main() {
	cli.Main("monitor", run)
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("monitor", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "triad", "workload: triad, daxpy, stencil, dot, mixed")
	n := fs.Int("n", 500, "workload size (loop trips)")
	presetsPath := fs.String("presets", "", "load presets from a file (default: derive from the CAT benchmark)")
	if err := cli.ParseFlags(fs, args); err != nil {
		return err
	}

	kernel := buildWorkload(*workload, *n)
	if kernel == nil {
		return cli.Usagef("unknown workload %q", *workload)
	}

	presets, err := loadOrDerivePresets(*presetsPath)
	if err != nil {
		return err
	}
	platform, err := machine.BuiltinPlatform("spr-sim")
	if err != nil {
		return err
	}

	// Union of events the presets need, and the multiplexing plan.
	seen := map[string]bool{}
	var events []string
	for _, p := range presets {
		for _, e := range p.Events {
			if !seen[e] {
				seen[e] = true
				events = append(events, e)
			}
		}
	}
	groups := platform.Groups(events)
	fmt.Fprintf(stdout, "monitoring %d events for %d presets in %d multiplexing round(s)\n\n",
		len(events), len(presets), len(groups))

	// Run the workload and measure.
	counts := cpusim.DefaultCore().Run(kernel)
	stats := cat.CPUStats(counts)
	vectors, err := platform.Measure([]machine.Stats{stats}, events, 0, 0)
	if err != nil {
		return err
	}

	// Evaluate every preset.
	fmt.Fprintf(stdout, "workload %s (n=%d):\n", kernel.Name, *n)
	for _, p := range presets {
		vals := make([]float64, len(p.Events))
		for i, e := range p.Events {
			vals[i] = vectors[e][0]
		}
		v, err := p.Evaluate(vals)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  %-24s %12.0f\n", p.Name, v)
	}

	// Ground truth for the FLOP presets, straight from the simulator.
	dp, sp := cpusim.TrueOps(counts)
	fmt.Fprintf(stdout, "\nsimulator ground truth: DP ops %0.f, SP ops %0.f, instructions %d\n",
		dp, sp, counts.Instructions)
	return nil
}

// buildWorkload selects a kernel from the workload library.
func buildWorkload(name string, n int) *cpusim.Kernel {
	switch name {
	case "triad":
		return cpusim.TriadKernel(n)
	case "daxpy":
		return cpusim.DaxpyKernel(n)
	case "stencil":
		return cpusim.StencilKernel(n)
	case "dot":
		return cpusim.DotKernel(n)
	case "mixed":
		return cpusim.MixedPrecisionKernel(n)
	}
	return nil
}

// loadOrDerivePresets reads presets from a file, or runs the CAT CPU-FLOPs
// analysis to derive them fresh.
func loadOrDerivePresets(path string) ([]*core.Preset, error) {
	if path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return core.ParsePresets(string(data))
	}
	reg, err := machine.NewRegistry()
	if err != nil {
		return nil, err
	}
	a, err := analysis.Run(context.Background(), reg, analysis.Request{Benchmark: "cpu-flops"}, 0)
	if err != nil {
		return nil, err
	}
	return core.ParsePresets(core.FormatPresets(a.Defs, a.ID.Config.RoundTol, core.ComposableThreshold))
}
