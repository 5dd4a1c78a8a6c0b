package core

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"github.com/perfmetrics/eventlens/internal/mat"
)

// This file reproduces the paper's Section V-E (threshold sensitivity): the
// QRCP tolerance alpha "does not have to be a perfect magic value" — a wide
// range of alphas selects the same events. AlphaSensitivity quantifies that
// claim for a given X.

// AlphaSelection records the outcome of one alpha value.
type AlphaSelection struct {
	Alpha  float64
	Events []string // selected events, in selection order
}

// SensitivityResult summarizes a sweep over alpha values.
type SensitivityResult struct {
	Selections []AlphaSelection
	// StableRange is the widest contiguous run of alphas (by sweep order)
	// whose selections are identical as sets; Lo and Hi are its bounds.
	StableLo, StableHi float64
	// StableCount is the number of alphas in that run.
	StableCount int
	// ConsensusEvents is the selection shared by the stable range.
	ConsensusEvents []string
}

// AlphaSensitivity runs the specialized QRCP over a sweep of alpha values
// against the same projected matrix and reports how stable the selected
// event set is. eventNames maps X's columns to names.
func AlphaSensitivity(x *mat.Dense, eventNames []string, alphas []float64) (*SensitivityResult, error) {
	if x.Cols() != len(eventNames) {
		return nil, fmt.Errorf("core: X has %d columns, %d names", x.Cols(), len(eventNames))
	}
	if len(alphas) == 0 {
		return nil, fmt.Errorf("core: empty alpha sweep")
	}
	res := &SensitivityResult{}
	for _, a := range alphas {
		qr := SpecializedQRCP(x, a)
		sel := AlphaSelection{Alpha: a}
		for _, idx := range qr.Selected() {
			sel.Events = append(sel.Events, eventNames[idx])
		}
		res.Selections = append(res.Selections, sel)
	}
	// Longest run of equal selections.
	bestLen, bestStart := 0, 0
	start := 0
	for i := 1; i <= len(res.Selections); i++ {
		if i == len(res.Selections) || !equalAsSets(res.Selections[i].Events, res.Selections[start].Events) {
			if run := i - start; run > bestLen {
				bestLen, bestStart = run, start
			}
			start = i
		}
	}
	res.StableCount = bestLen
	res.StableLo = res.Selections[bestStart].Alpha
	res.StableHi = res.Selections[bestStart+bestLen-1].Alpha
	res.ConsensusEvents = append([]string(nil), res.Selections[bestStart].Events...)
	return res, nil
}

// equalAsSets compares two string slices as sets.
func equalAsSets(a, b []string) bool {
	return slices.Equal(slices.Sorted(slices.Values(a)), slices.Sorted(slices.Values(b)))
}

// DecadeSweep returns n alpha values log-spaced from lo to hi inclusive.
func DecadeSweep(lo, hi float64, n int) []float64 {
	if n < 2 || lo <= 0 || hi <= lo {
		return []float64{lo}
	}
	out := make([]float64, n)
	ratio := hi / lo
	for i := range out {
		out[i] = lo * math.Pow(ratio, float64(i)/float64(n-1))
	}
	return out
}

// String renders the sensitivity sweep compactly.
func (r *SensitivityResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "alpha sensitivity: %d/%d alphas agree on %d events (stable range %.1e .. %.1e)\n",
		r.StableCount, len(r.Selections), len(r.ConsensusEvents), r.StableLo, r.StableHi)
	for _, s := range r.Selections {
		marker := " "
		if equalAsSets(s.Events, r.ConsensusEvents) {
			marker = "*"
		}
		fmt.Fprintf(&b, "  %s alpha=%.1e -> %d events\n", marker, s.Alpha, len(s.Events))
	}
	return b.String()
}
