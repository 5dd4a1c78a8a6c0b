package core

import (
	"math"
	"sort"

	"github.com/perfmetrics/eventlens/internal/mat"
)

// EventVariability is the noise measure of one event (Section IV).
type EventVariability struct {
	Event string
	// MaxRNMSE is the maximum pairwise root normalized mean-square error
	// across repetitions (Eq. 4). Zero means all repetitions are identical.
	MaxRNMSE float64
}

// MaxRNMSE computes the paper's Eq. 4 over a set of repetition vectors:
//
//	max over i != j of ||m_i - m_j||_2 / sqrt(N * mean(m_i) * mean(m_j))
//
// When the denominator of a pair is zero (an all-zero mean), that pair's
// variability is defined as 1 — a 100 percent error. A single repetition has
// zero variability by definition.
func MaxRNMSE(vectors [][]float64) float64 {
	return maxRNMSE(vectors, make([]float64, len(vectors)))
}

// maxRNMSE is MaxRNMSE with the vectors' means computed into means (one per
// vector): hoisted out of the O(reps²) pair loop, which itself runs
// allocation-free on the fused difference norm.
func maxRNMSE(vectors [][]float64, means []float64) float64 {
	maxErr := 0.0
	n := float64(len(vectors[0]))
	for i, v := range vectors {
		means[i] = mat.Mean(v)
	}
	for i := 0; i < len(vectors); i++ {
		for j := i + 1; j < len(vectors); j++ {
			var rnmse float64
			den := n * means[i] * means[j]
			if den <= 0 {
				if mat.VecEqualApprox(vectors[i], vectors[j], 0) {
					// Identical vectors carry no pairwise noise even if the
					// mean is zero.
					rnmse = 0
				} else {
					rnmse = 1
				}
			} else {
				rnmse = mat.SubNorm2(vectors[i], vectors[j]) / math.Sqrt(den)
			}
			if rnmse > maxErr {
				maxErr = rnmse
			}
		}
	}
	return maxErr
}

// NoiseReport is the outcome of the noise-analysis stage.
type NoiseReport struct {
	// Variabilities holds one entry per event that produced any nonzero
	// measurement, in the measurement set's event order. It and Discarded
	// do not depend on the threshold, so a report cut from a NoiseProfile
	// shares both with the profile and with every other report cut from it;
	// they are read-only.
	Variabilities []EventVariability
	// Discarded lists all-zero (irrelevant) events.
	Discarded []string
	// Filtered lists events rejected for exceeding the noise threshold.
	Filtered []string
	// Kept maps each surviving event to its average measurement vector
	// (the mean over repetitions of the median over threads). The vectors
	// are read-only: a report cut from a NoiseProfile shares them with the
	// profile and with every other report cut from it.
	Kept map[string][]float64
	// KeptOrder lists surviving events in measurement order.
	KeptOrder []string
	// Tau is the threshold that was applied.
	Tau float64
}

// FilterNoise runs the Section IV noise analysis on a measurement set with
// threshold tau: all-zero events are discarded as irrelevant, events with
// max-RNMSE above tau are filtered out, and each survivor is reduced to its
// average measurement vector. FilterNoiseWith accepts alternative noise
// measures.
func FilterNoise(set *MeasurementSet, tau float64) *NoiseReport {
	return FilterNoiseWith(set, tau, MaxRNMSE)
}

// allFinite reports whether every element of every vector is finite.
func allFinite(vectors [][]float64) bool {
	for _, v := range vectors {
		for _, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return false
			}
		}
	}
	return true
}

// SortedVariabilities returns the variability entries sorted ascending by
// max-RNMSE — the series plotted in the paper's Figure 2.
func (r *NoiseReport) SortedVariabilities() []EventVariability {
	out := make([]EventVariability, len(r.Variabilities))
	copy(out, r.Variabilities)
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].MaxRNMSE < out[j].MaxRNMSE
	})
	return out
}
