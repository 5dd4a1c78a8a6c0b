// Cache metrics: the noisy end of the methodology. The data-cache benchmark
// runs multi-threaded pointer chases; cache events carry real measurement
// noise, so the pipeline uses the lenient thresholds (tau = 1e-1,
// alpha = 5e-2), suppresses per-thread noise with the median, and the
// resulting least-squares coefficients land within a couple percent of 0 or
// 1 — rounding them recovers exact combinations whose point-space series
// match the metric signatures (Section VI-D and Figure 3 of the paper).
//
// Run with: go run ./examples/cachemetrics
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"github.com/perfmetrics/eventlens"
)

func main() {
	log.SetFlags(0)

	reg, err := eventlens.NewRegistry()
	if err != nil {
		log.Fatal(err)
	}
	// 5 repetitions, 4 concurrent measuring threads on disjoint buffers.
	req := eventlens.AnalysisRequest{Benchmark: "dcache", Run: &eventlens.RunConfig{Reps: 5, Threads: 4}}
	a, err := eventlens.Analyze(context.Background(), reg, req, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pointer-chase sweep: %d configurations (two strides x L1/L2/L3/memory regions)\n",
		len(a.Profile.PointNames))
	fmt.Print(eventlens.FormatNoiseSummary(a.Result.Noise))
	fmt.Print(eventlens.FormatSelection(a.Result))
	fmt.Println()

	basis, err := a.ID.Bench.Basis()
	if err != nil {
		log.Fatal(err)
	}
	for i, def := range a.Defs {
		sig := a.ID.Bench.Signatures[i]
		rounded := def.Rounded(0.05)
		fmt.Printf("%-12s raw coefficients:", sig.Name)
		for _, t := range def.Terms {
			fmt.Printf(" %+.4f", t.Coeff)
		}
		fmt.Printf("   rounded:")
		for _, t := range rounded.Terms {
			fmt.Printf(" %+g", t.Coeff)
		}
		// Verify the rounded combination tracks the signature across the
		// sweep (this is what Figure 3 plots).
		combo, err := rounded.Combine(a.Result.Noise.Kept)
		if err != nil {
			log.Fatal(err)
		}
		want, err := basis.Expand(sig.Coeffs)
		if err != nil {
			log.Fatal(err)
		}
		worst := 0.0
		for j := range combo {
			worst = math.Max(worst, math.Abs(combo[j]-want[j]))
		}
		fmt.Printf("   max |combo - signature| = %.3g\n", worst)
	}
}
