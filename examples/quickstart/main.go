// Quickstart: define the "DP Ops." (double-precision FLOPs) metric from raw
// hardware events on the simulated Sapphire Rapids CPU.
//
// This is the paper's motivating example (Section II): Sapphire Rapids has
// no raw event counting DP FLOPs, so the analysis discovers which existing
// events to combine, and by what factors, to construct it:
//
//	1 x SCALAR_DOUBLE + 2 x 128B_PACKED_DOUBLE
//	                  + 4 x 256B_PACKED_DOUBLE + 8 x 512B_PACKED_DOUBLE
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/perfmetrics/eventlens"
)

func main() {
	log.SetFlags(0)

	// Analyze the CPU-FLOPs benchmark — 16 microkernels stressing every
	// floating-point instruction class — on its default platform, the
	// simulated Sapphire Rapids: collect 5 repetitions of every raw event
	// over all 48 kernel loops, then run the analysis pipeline (noise
	// filter -> expectation-basis projection -> specialized QRCP) and define
	// the benchmark's metrics from the selected events.
	reg, err := eventlens.NewRegistry()
	if err != nil {
		log.Fatal(err)
	}
	a, err := eventlens.Analyze(context.Background(), reg, eventlens.AnalysisRequest{Benchmark: "cpu-flops"}, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(eventlens.FormatSelection(a.Result))
	fmt.Println()

	for _, def := range a.Defs {
		switch def.Metric {
		case "DP Ops.":
			fmt.Println("composed metric:")
			fmt.Print(def)
			if def.Composable(eventlens.ComposableThreshold) {
				fmt.Println("\nDP FLOPs can be measured on this architecture with the combination above.")
			}
		case "DP FMA Instrs.":
			// Contrast: FMA instruction counts canNOT be composed — no
			// FMA-only event exists, and the backward error says so (paper
			// Table V).
			fmt.Printf("\n%s backward error = %.3g -> not composable (no FMA-only event exists)\n",
				def.Metric, def.BackwardError)
		}
	}
}
