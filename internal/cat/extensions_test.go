package cat

import (
	"testing"

	"github.com/perfmetrics/eventlens/internal/core"
)

// Integration tests for the future-work extensions, run against real
// benchmark data rather than synthetic matrices.

func TestAlphaSensitivityOnCPUFlops(t *testing.T) {
	// Section V-E: the alpha threshold "does not have to be a perfect magic
	// value" — the 8 FP_ARITH events must be selected across decades of
	// alpha around the paper's 5e-4.
	set, err := Collect("cpu-flops", NewFlopsCPU(), sprPlatform(t), DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	basis, err := NewFlopsCPU().Basis()
	if err != nil {
		t.Fatal(err)
	}
	pipe := &core.Pipeline{Basis: basis, Config: core.DefaultConfig()}
	res, err := pipe.Analyze(set)
	if err != nil {
		t.Fatal(err)
	}
	sweep := core.DecadeSweep(1e-5, 1e-1, 9)
	sens, err := core.AlphaSensitivity(res.Projection.X, res.Projection.Order, sweep)
	if err != nil {
		t.Fatal(err)
	}
	if len(sens.ConsensusEvents) != 8 {
		t.Fatalf("consensus selects %d events, want 8:\n%s", len(sens.ConsensusEvents), sens)
	}
	if sens.StableCount < 6 {
		t.Fatalf("selection stable for only %d of %d alphas:\n%s", sens.StableCount, len(sweep), sens)
	}
	// The paper's value sits inside the stable range.
	if !(sens.StableLo <= 5e-4 && 5e-4 <= sens.StableHi) {
		t.Fatalf("paper's alpha=5e-4 outside stable range [%g, %g]", sens.StableLo, sens.StableHi)
	}
}

func TestSuggestTauOnBranchBenchmark(t *testing.T) {
	// Automatic threshold selection must land inside the Figure 2a gap —
	// the same region the paper says any tau in 1e-4..1e-15 works in.
	set, err := Collect("branch", NewBranch(), sprPlatform(t), DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	report := core.FilterNoise(set, 1e-10)
	s := core.SuggestTau(report.Variabilities)
	if s.GapDecades < 4 {
		t.Fatalf("gap too narrow: %v decades", s.GapDecades)
	}
	if !(1e-16 < s.Tau && s.Tau < 1e-4) {
		t.Fatalf("suggested tau %v outside the paper's admissible band", s.Tau)
	}
	// Filtering with the suggested tau keeps exactly the zero-noise events.
	auto := core.FilterNoise(set, s.Tau)
	for _, name := range auto.KeptOrder {
		for _, v := range auto.Variabilities {
			if v.Event == name && v.MaxRNMSE != 0 {
				t.Fatalf("auto-tau kept a noisy event %s (%v)", name, v.MaxRNMSE)
			}
		}
	}
}

func TestSuggestTauOnCPUFlops(t *testing.T) {
	set, err := Collect("cpu-flops", NewFlopsCPU(), sprPlatform(t), DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	report := core.FilterNoise(set, 1e-10)
	s := core.SuggestTau(report.Variabilities)
	if !(1e-16 < s.Tau && s.Tau < 1e-4) {
		t.Fatalf("suggested tau %v outside the admissible band", s.Tau)
	}
}

func TestAlternativeNoiseMeasuresAgreeOnCleanEvents(t *testing.T) {
	// Every zero-RNMSE event must also read zero under MAD and CV; the
	// measures may disagree on the noisy tail but never on the clean core.
	set, err := Collect("branch", NewBranch(), sprPlatform(t), DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	rnmse := core.FilterNoiseWith(set, 1e-10, core.MaxRNMSE)
	mad := core.FilterNoiseWith(set, 1e-10, core.MaxPairwiseMAD)
	cv := core.FilterNoiseWith(set, 1e-10, core.MaxCV)
	zero := map[string]bool{}
	for _, v := range rnmse.Variabilities {
		if v.MaxRNMSE == 0 {
			zero[v.Event] = true
		}
	}
	for _, rep := range []*core.NoiseReport{mad, cv} {
		kept := map[string]bool{}
		for _, name := range rep.KeptOrder {
			kept[name] = true
		}
		for name := range zero {
			if !kept[name] {
				t.Fatalf("measure disagrees on clean event %s", name)
			}
		}
	}
}
