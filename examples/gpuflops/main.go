// GPU FLOPs: map the ~1000-event ROCm-style catalog of the simulated MI250X
// down to the 12 VALU instruction events, then define floating-point metrics
// per precision — including discovering that "HP Add" alone cannot be
// measured because SQ_INSTS_VALU_ADD_F16 counts subtractions too
// (Section V-B and Table VI of the paper).
//
// Run with: go run ./examples/gpuflops
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/perfmetrics/eventlens"
)

func main() {
	log.SetFlags(0)

	reg, err := eventlens.NewRegistry()
	if err != nil {
		log.Fatal(err)
	}
	a, err := eventlens.Analyze(context.Background(), reg, eventlens.AnalysisRequest{Benchmark: "gpu-flops"}, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated platform %s exposes %d raw events\n", a.ID.Platform.Name, len(a.ID.Platform.Events))
	fmt.Printf("benchmark points: %d, events measured: %d\n", len(a.Profile.PointNames), len(a.Profile.Order))
	fmt.Print(eventlens.FormatNoiseSummary(a.Result.Noise))
	fmt.Print(eventlens.FormatSelection(a.Result))
	fmt.Println()

	fmt.Print(eventlens.FormatMetricTable("GPU floating-point metrics (paper Table VI):", a.Defs))

	fmt.Println("\ncomposability verdicts:")
	for _, def := range a.Defs {
		verdict := "composable"
		if !def.Composable(eventlens.ComposableThreshold) {
			verdict = "NOT composable on this architecture"
		}
		fmt.Printf("  %-24s error %.3g  %s\n", def.Metric, def.BackwardError, verdict)
	}
	fmt.Println("\nnote: HP Add and HP Sub fail individually (ADD_F16 counts both),")
	fmt.Println("      but their sum is exactly measurable — the analysis proves it.")
}
