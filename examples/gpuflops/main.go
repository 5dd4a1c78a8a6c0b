// GPU FLOPs: map the ~1000-event ROCm-style catalog of the simulated MI250X
// down to the 12 VALU instruction events, then define floating-point metrics
// per precision — including discovering that "HP Add" alone cannot be
// measured because SQ_INSTS_VALU_ADD_F16 counts subtractions too
// (Section V-B and Table VI of the paper).
//
// Run with: go run ./examples/gpuflops
package main

import (
	"fmt"
	"log"

	"github.com/perfmetrics/eventlens"
)

func main() {
	log.SetFlags(0)

	bench, err := eventlens.BenchmarkByName("gpu-flops")
	if err != nil {
		log.Fatal(err)
	}
	platform, err := eventlens.MI250X()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated platform %s exposes %d raw events\n", platform.Name, platform.Catalog.Len())

	res, set, err := bench.Analyze(eventlens.DefaultRunConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("benchmark points: %d, events measured: %d\n", len(set.PointNames), len(set.Order))
	fmt.Print(eventlens.FormatNoiseSummary(res.Noise))
	fmt.Print(eventlens.FormatSelection(res))
	fmt.Println()

	defs, err := res.DefineMetrics(eventlens.GPUFlopsSignatures())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(eventlens.FormatMetricTable("GPU floating-point metrics (paper Table VI):", defs))

	fmt.Println("\ncomposability verdicts:")
	for _, def := range defs {
		verdict := "composable"
		if !def.Composable(eventlens.ComposableThreshold) {
			verdict = "NOT composable on this architecture"
		}
		fmt.Printf("  %-24s error %.3g  %s\n", def.Metric, def.BackwardError, verdict)
	}
	fmt.Println("\nnote: HP Add and HP Sub fail individually (ADD_F16 counts both),")
	fmt.Println("      but their sum is exactly measurable — the analysis proves it.")
}
