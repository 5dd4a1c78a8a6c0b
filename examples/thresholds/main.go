// Thresholds: the paper's future work, running. The original methodology
// uses hand-picked thresholds (tau for noise, alpha for the QRCP); this
// example selects tau automatically from the variability spectrum, compares
// three noise measures, and quantifies how insensitive the event selection
// is to alpha — all on the simulated Sapphire Rapids branch benchmark.
//
// Run with: go run ./examples/thresholds
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/perfmetrics/eventlens"
)

func main() {
	log.SetFlags(0)

	bench, err := eventlens.BenchmarkByName("branch")
	if err != nil {
		log.Fatal(err)
	}
	set, err := bench.Collect(context.Background(), eventlens.DefaultRunConfig())
	if err != nil {
		log.Fatal(err)
	}

	// 1. Automatic tau: find the widest gap in the variability spectrum.
	prelim := eventlens.FilterNoise(set, 1e-10)
	s := eventlens.SuggestTau(prelim.Variabilities)
	fmt.Printf("automatic tau: %.2e  (gap of %.1f decades: %d clean events below, %d noisy above)\n",
		s.Tau, s.GapDecades, s.Below, s.Above)
	fmt.Printf("the paper's hand-picked tau=1e-10 lies in the same gap: %v\n\n",
		s.Tau < 1e-4 && 1e-10 > 1e-16)

	// 2. Noise-measure comparison: all three must keep the same clean core.
	for _, m := range []struct {
		name    string
		measure eventlens.NoiseMeasure
	}{
		{"max RNMSE (Eq. 4)", eventlens.MaxRNMSE},
		{"max pairwise MAD", eventlens.MaxPairwiseMAD},
		{"max CV", eventlens.MaxCV},
	} {
		rep := eventlens.FilterNoiseWith(set, s.Tau, m.measure)
		fmt.Printf("  %-20s keeps %3d events, filters %3d, discards %3d all-zero\n",
			m.name, len(rep.KeptOrder), len(rep.Filtered), len(rep.Discarded))
	}
	fmt.Println()

	// 3. Alpha sensitivity (Section V-E): run the pipeline once, then sweep
	// the QRCP tolerance across four decades.
	basis, err := bench.Basis()
	if err != nil {
		log.Fatal(err)
	}
	cfg := bench.Config
	cfg.Tau = s.Tau // use the automatic threshold
	pipe := &eventlens.Pipeline{Basis: basis, Config: cfg}
	res, err := pipe.Analyze(set)
	if err != nil {
		log.Fatal(err)
	}
	sweep := eventlens.DecadeSweep(1e-5, 1e-1, 9)
	sens, err := eventlens.AlphaSensitivity(res.Projection.X, res.Projection.Order, sweep)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(sens)
	fmt.Printf("\nconsensus selection: %v\n", sens.ConsensusEvents)
}
