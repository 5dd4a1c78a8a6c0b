// Cross-architecture portability: the same benchmark, signatures and
// analysis run against two CPUs with different event semantics — the
// Intel-SPR-like platform (separate events per precision, FMA counted twice)
// and an AMD-Zen4-like platform (events merge precisions, FMA counted once).
//
// The analysis discovers, per architecture and with zero manual parsing:
//
//   - which raw events carry independent information (8 on SPR, 4 on Zen4),
//   - which metrics can be composed where (DP Ops: yes on SPR, NO on Zen4 —
//     AMD's merged-precision events cannot separate SP from DP),
//   - and the exact combinations where composition is possible.
//
// This is the portability problem the paper's introduction motivates: PAPI
// presets must be redefined for every architecture, and this automates it.
//
// Run with: go run ./examples/crossarch
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/perfmetrics/eventlens"
	"github.com/perfmetrics/eventlens/internal/core"
)

func main() {
	log.SetFlags(0)

	// Same benchmark, signatures and thresholds on both machines: only the
	// request's platform differs.
	reg, err := eventlens.NewRegistry()
	if err != nil {
		log.Fatal(err)
	}
	for _, name := range []string{"spr-sim", "zen4-sim"} {
		a, err := eventlens.Analyze(context.Background(), reg, eventlens.AnalysisRequest{Benchmark: "cpu-flops", Platform: name}, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("=== %s (%d raw events) ===\n", a.ID.Platform.Name, len(a.ID.Platform.Events))
		fmt.Print(eventlens.FormatSelection(a.Result))

		fmt.Println("composability per metric:")
		for _, def := range a.Defs {
			verdict := "composable"
			if !def.Composable(eventlens.ComposableThreshold) {
				verdict = "NOT composable"
			}
			fmt.Printf("  %-16s error %9.3g  %s\n", def.Metric, def.BackwardError, verdict)
		}

		// Emit the auto-generated presets this machine supports.
		fmt.Println("auto-generated presets:")
		fmt.Print(core.FormatPresets(a.Defs, 0.05, eventlens.ComposableThreshold))
		fmt.Println()
	}
	fmt.Println("summary: DP Ops. composes on spr-sim but not on zen4-sim — the")
	fmt.Println("AMD-style merged-precision events cannot separate SP from DP work,")
	fmt.Println("and the backward error exposes that automatically.")
}
