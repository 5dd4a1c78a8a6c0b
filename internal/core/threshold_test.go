package core

import (
	"math"
	"testing"
)

func TestMaxPairwiseMADIdentical(t *testing.T) {
	v := []float64{1, 2, 3}
	if got := MaxPairwiseMAD([][]float64{v, v}); got != 0 {
		t.Fatalf("identical vectors MAD = %v want 0", got)
	}
}

func TestMaxPairwiseMADRobustToSingleGlitch(t *testing.T) {
	// One glitched point: MAD stays small while RNMSE blows up — the reason
	// to offer the alternative measure.
	a := []float64{100, 100, 100, 100, 100}
	b := []float64{100, 100, 100, 100, 10000}
	mad := MaxPairwiseMAD([][]float64{a, b})
	rnmse := MaxRNMSE([][]float64{a, b})
	if mad >= rnmse {
		t.Fatalf("MAD (%v) should be more robust than RNMSE (%v)", mad, rnmse)
	}
	if mad != 0 {
		t.Fatalf("median deviation with one glitch should be 0, got %v", mad)
	}
}

func TestMaxPairwiseMADTotalDisagreement(t *testing.T) {
	// An all-zero vector against an all-one vector: the median deviation is
	// the full combined scale times two.
	a := []float64{0, 0, 0}
	b := []float64{1, 1, 1}
	if got := MaxPairwiseMAD([][]float64{a, b}); got != 2 {
		t.Fatalf("total disagreement = %v want 2", got)
	}
}

func TestMaxCVBasics(t *testing.T) {
	v := []float64{10, 20}
	if got := MaxCV([][]float64{v, v, v}); got != 0 {
		t.Fatalf("identical vectors CV = %v want 0", got)
	}
	if got := MaxCV([][]float64{v}); got != 0 {
		t.Fatalf("single rep CV = %v want 0", got)
	}
	// 10% relative spread at one point.
	got := MaxCV([][]float64{{100, 50}, {120, 50}})
	if math.Abs(got-10.0/110.0) > 1e-12 {
		t.Fatalf("CV = %v", got)
	}
}

// TestMaxCVIdenticalRepetitions: identical repetitions read exactly 0, the
// NoiseMeasure contract, at every repetition count — not a rounding residue
// that a tau of 1e-10 would filter.
func TestMaxCVIdenticalRepetitions(t *testing.T) {
	for _, v := range [][]float64{
		{123456789, 246913578},
		{0.1, 0.2},
		{0.1, 0.7, 1e-3, 3.3},
		{1e15 + 1, 7, 0},
		{-2.5, 1e-300, 6.02e23},
	} {
		for reps := 2; reps <= 9; reps++ {
			vectors := make([][]float64, reps)
			for r := range vectors {
				vectors[r] = append([]float64(nil), v...)
			}
			if got := MaxCV(vectors); got != 0 {
				t.Errorf("%d identical repetitions of %v: CV = %v want 0", reps, v, got)
			}
		}
	}
}

func TestMaxCVZeroMeanDisagreement(t *testing.T) {
	// Points averaging zero but with disagreement read as total noise.
	got := MaxCV([][]float64{{-1, 5}, {1, 5}})
	if got != 1 {
		t.Fatalf("zero-mean disagreement CV = %v want 1", got)
	}
}

func TestFilterNoiseWithAlternativeMeasure(t *testing.T) {
	set := NewMeasurementSet("t", "p", []string{"a", "b", "c", "d", "e"})
	// Glitch on one point: RNMSE filters it, MAD keeps it.
	mustAdd(t, set, "glitchy", []float64{10, 10, 10, 10, 10}, []float64{10, 10, 10, 10, 500})
	rnmseRep := FilterNoiseWith(set, 1e-2, MaxRNMSE)
	madRep := FilterNoiseWith(set, 1e-2, MaxPairwiseMAD)
	if len(rnmseRep.Filtered) != 1 {
		t.Fatalf("RNMSE should filter the glitchy event")
	}
	if len(madRep.KeptOrder) != 1 {
		t.Fatalf("MAD should keep the glitchy event")
	}
}

func mustAdd(t *testing.T, set *MeasurementSet, event string, reps ...[]float64) {
	t.Helper()
	for r, v := range reps {
		if err := set.Add(event, Measurement{Rep: r, Vector: v}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFilterNoiseWithDiscardsAllZero(t *testing.T) {
	set := NewMeasurementSet("t", "p", []string{"a"})
	mustAdd(t, set, "zero", []float64{0}, []float64{0})
	rep := FilterNoiseWith(set, 1, MaxCV)
	if len(rep.Discarded) != 1 {
		t.Fatalf("all-zero event not discarded")
	}
}

func TestSuggestTauCleanSplit(t *testing.T) {
	// 5 zero-noise events and 5 noisy events from 1e-4 up: the suggestion
	// must land in the gap.
	var vars []EventVariability
	for i := 0; i < 5; i++ {
		vars = append(vars, EventVariability{Event: "z", MaxRNMSE: 0})
	}
	for _, v := range []float64{1e-4, 1e-3, 1e-2, 1e-1, 1} {
		vars = append(vars, EventVariability{Event: "n", MaxRNMSE: v})
	}
	s := SuggestTau(vars)
	if s.Tau <= 1e-16 || s.Tau >= 1e-4 {
		t.Fatalf("suggested tau %v outside the gap", s.Tau)
	}
	if s.Below != 5 || s.Above != 5 {
		t.Fatalf("split %d/%d want 5/5", s.Below, s.Above)
	}
	if s.GapDecades < 10 {
		t.Fatalf("gap decades = %v", s.GapDecades)
	}
}

func TestSuggestTauDegenerate(t *testing.T) {
	// A continuum with no real gap: fall back to the paper default.
	var vars []EventVariability
	for _, v := range []float64{0.1, 0.15, 0.2, 0.3, 0.4} {
		vars = append(vars, EventVariability{MaxRNMSE: v})
	}
	s := SuggestTau(vars)
	if s.Tau != 1e-10 {
		t.Fatalf("degenerate spectrum should fall back, got %v", s.Tau)
	}
	if s.GapDecades >= 1 {
		t.Fatalf("gap should be under a decade, got %v", s.GapDecades)
	}
}

func TestSuggestTauTiny(t *testing.T) {
	if s := SuggestTau(nil); s.Tau != 1e-10 {
		t.Fatalf("empty spectrum fallback = %v", s.Tau)
	}
	one := []EventVariability{{MaxRNMSE: 0.5}}
	if s := SuggestTau(one); s.Tau != 1e-10 || s.Below != 1 {
		t.Fatalf("single-event fallback wrong: %+v", s)
	}
}

func TestSuggestTauMatchesPaperDefaults(t *testing.T) {
	// On a synthetic branch-like spectrum (zero cluster, tail from 1e-7),
	// any tau in the gap is acceptable; the paper's 1e-10 must lie inside
	// the suggested gap's bounds.
	var vars []EventVariability
	for i := 0; i < 20; i++ {
		vars = append(vars, EventVariability{MaxRNMSE: 0})
	}
	for _, v := range []float64{1e-7, 1e-5, 1e-2, 1} {
		vars = append(vars, EventVariability{MaxRNMSE: v})
	}
	s := SuggestTau(vars)
	if !(1e-16 < s.Tau && s.Tau < 1e-7) {
		t.Fatalf("tau %v not in (1e-16, 1e-7)", s.Tau)
	}
}
