package cat

import (
	"fmt"
	"testing"

	"github.com/perfmetrics/eventlens/internal/core"
	"github.com/perfmetrics/eventlens/internal/machine"
)

// TestStreamMatchesBatchNoiseAnalysis: streaming collection reads every event
// with the noise batch collection draws, so the streaming filter reaches the
// batch filter's verdicts, variabilities and kept vectors event for event.
// tau = 1e-1 keeps noisy events, so their noise is compared too — on a
// single-thread benchmark and on a multi-thread one with per-thread truth.
func TestStreamMatchesBatchNoiseAnalysis(t *testing.T) {
	const tau = 1e-1
	platform := sprPlatform(t)
	cases := []struct {
		bench  string
		driver Driver
		cfg    RunConfig
	}{
		{"branch", NewBranch(), DefaultRunConfig()},
		{"dcache", testDCache(), RunConfig{Reps: 5, Threads: 4}},
	}
	for _, c := range cases {
		t.Run(c.bench, func(t *testing.T) {
			set, err := Collect(c.bench, c.driver, platform, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			batch := core.FilterNoise(set, tau)
			truth, err := c.driver.GroundTruth(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			stream, err := core.FilterNoiseStream(StreamEvents(platform, truth, c.cfg), tau, core.MaxRNMSE)
			if err != nil {
				t.Fatal(err)
			}

			if len(stream.Variabilities) != len(batch.Variabilities) {
				t.Fatalf("variabilities: stream %d vs batch %d", len(stream.Variabilities), len(batch.Variabilities))
			}
			batchNoise := make(map[string]float64, len(batch.Variabilities))
			for _, v := range batch.Variabilities {
				batchNoise[v.Event] = v.MaxRNMSE
			}
			differ, noisyKept := 0, 0
			for _, v := range stream.Variabilities {
				want, ok := batchNoise[v.Event]
				if !ok || v.MaxRNMSE != want {
					differ++
				}
				if _, kept := stream.Kept[v.Event]; kept && v.MaxRNMSE > 0 {
					noisyKept++
				}
			}
			if differ > 0 {
				t.Fatalf("%d of %d variabilities differ between stream and batch", differ, len(stream.Variabilities))
			}
			if noisyKept == 0 {
				t.Fatalf("no noisy event kept at tau %g: the comparison covers only noise-free vectors", tau)
			}
			if !sameSet(stream.Discarded, batch.Discarded) || !sameSet(stream.Filtered, batch.Filtered) {
				t.Fatalf("verdicts differ: stream %d discarded/%d filtered, batch %d/%d",
					len(stream.Discarded), len(stream.Filtered), len(batch.Discarded), len(batch.Filtered))
			}
			if !sameSet(stream.KeptOrder, batch.KeptOrder) {
				t.Fatalf("kept: stream %d vs batch %d events", len(stream.KeptOrder), len(batch.KeptOrder))
			}
			for _, name := range stream.KeptOrder {
				for i, v := range stream.Kept[name] {
					if v != batch.Kept[name][i] {
						t.Fatalf("%s: vector differs at %d: %v vs %v", name, i, v, batch.Kept[name][i])
					}
				}
			}
		})
	}
}

func TestStreamEarlyStop(t *testing.T) {
	platform := sprPlatform(t)
	truth, err := NewBranch().GroundTruth(DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	stop := fmt.Errorf("stop")
	count := 0
	err = StreamEvents(platform, truth, RunConfig{Reps: 1, Threads: 1})(func(string, [][]float64) error {
		count++
		if count == 3 {
			return stop
		}
		return nil
	})
	if err != stop {
		t.Fatalf("yield error not propagated: %v", err)
	}
	if count != 3 {
		t.Fatalf("source did not stop early: %d events", count)
	}
}

func TestStreamInvalidConfig(t *testing.T) {
	platform := sprPlatform(t)
	err := StreamEvents(platform, nil, RunConfig{Reps: 0, Threads: 1})(func(string, [][]float64) error {
		return nil
	})
	if err == nil {
		t.Fatalf("invalid config should fail")
	}
	// Ground truth for two threads cannot serve a three-thread run, streamed
	// or batched.
	truth := [][]machine.Stats{{}, {}}
	cfg := RunConfig{Reps: 1, Threads: 3}
	if err := StreamEvents(platform, truth, cfg)(func(string, [][]float64) error { return nil }); err == nil {
		t.Fatalf("stream: ground truth for 2 threads accepted for 3")
	}
	if _, err := measure("branch", platform, machine.NewPlan(platform), nil, truth, cfg); err == nil {
		t.Fatalf("measure: ground truth for 2 threads accepted for 3")
	}
}

func TestStreamingPipelineHundredThousandEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale streaming test skipped in -short mode")
	}
	// The paper's motivating scale: a 100k-event catalog, streamed group by
	// group through noise filtering and the rest of the pipeline.
	platform, err := machine.SyntheticCatalog(100000, 99)
	if err != nil {
		t.Fatal(err)
	}
	bench := NewFlopsCPU()
	cfg := RunConfig{Reps: 2, Threads: 1}
	truth, err := bench.GroundTruth(cfg)
	if err != nil {
		t.Fatal(err)
	}
	noise, err := core.FilterNoiseStream(StreamEvents(platform, truth, cfg), 1e-10, core.MaxRNMSE)
	if err != nil {
		t.Fatal(err)
	}
	basis, err := bench.Basis()
	if err != nil {
		t.Fatal(err)
	}
	proj, err := core.BuildXWorkers(basis, noise.Kept, noise.KeptOrder, 1e-2, 0)
	if err != nil {
		t.Fatal(err)
	}
	qr := core.SpecializedQRCP(proj.X, 5e-4)
	if qr.Rank != 8 {
		t.Fatalf("rank = %d want 8 at 100k-event scale", qr.Rank)
	}
	for _, idx := range qr.Selected() {
		name := proj.Order[idx]
		if len(name) >= 4 && name[:4] == "SYN_" {
			t.Fatalf("synthetic filler selected: %s", name)
		}
	}
}
