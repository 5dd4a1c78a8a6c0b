package core

import (
	"math"
	"sort"

	"github.com/perfmetrics/eventlens/internal/mat"
	"github.com/perfmetrics/eventlens/internal/par"
)

// This file implements the paper's stated future work: "methods to develop
// different measures to quantify event noise and more rigorously select
// noise suppression thresholds".

// NoiseMeasure quantifies the run-to-run variability of an event from its
// repetition vectors. The contract matches MaxRNMSE: 0 means identical
// repetitions, ~1 means total disagreement.
type NoiseMeasure func(vectors [][]float64) float64

// MaxPairwiseMAD is an alternative noise measure: the maximum over vector
// pairs of the median absolute elementwise deviation, normalized by the
// combined mean magnitude. Medians make it robust to a single glitched
// benchmark point, where the RNMSE's 2-norm is dominated by it.
func MaxPairwiseMAD(vectors [][]float64) float64 {
	maxErr := 0.0
	for i := 0; i < len(vectors); i++ {
		for j := i + 1; j < len(vectors); j++ {
			scale := (meanAbs(vectors[i]) + meanAbs(vectors[j])) / 2
			devs := make([]float64, len(vectors[i]))
			for k := range devs {
				devs[k] = math.Abs(vectors[i][k] - vectors[j][k])
			}
			sort.Float64s(devs)
			med := devs[len(devs)/2]
			if len(devs)%2 == 0 {
				med = (devs[len(devs)/2-1] + devs[len(devs)/2]) / 2
			}
			// A nonzero median deviation implies a nonzero scale, so the
			// ratio is always well defined.
			var v float64
			if med > 0 {
				v = med / scale
			}
			if v > maxErr {
				maxErr = v
			}
		}
	}
	return maxErr
}

// MaxCV is a coefficient-of-variation measure: the largest per-point
// standard deviation across repetitions divided by that point's mean,
// considering only points with a nonzero mean. It is the classical
// "counter stability" statistic. Each point's moments are taken over its
// readings' deviations from its first reading, so identical repetitions
// read exactly 0: E[x²] − E[x]² over the readings themselves leaves a
// rounding residue of order 1e-8, far above the paper's tau of 1e-10.
func MaxCV(vectors [][]float64) float64 {
	if len(vectors) < 2 {
		return 0
	}
	n := len(vectors[0])
	reps := float64(len(vectors))
	maxCV := 0.0
	anyNonZeroMean := false
	disagreeOnZero := false
	for p := 0; p < n; p++ {
		first := vectors[0][p]
		var sum, sumSq float64
		for _, v := range vectors {
			d := v[p] - first
			sum += d
			sumSq += d * d
		}
		shift := sum / reps
		mean := first + shift
		variance := sumSq/reps - shift*shift
		if variance < 0 {
			variance = 0
		}
		if mat.IsZero(mean) {
			if variance > 0 {
				disagreeOnZero = true
			}
			continue
		}
		anyNonZeroMean = true
		if cv := math.Sqrt(variance) / math.Abs(mean); cv > maxCV {
			maxCV = cv
		}
	}
	if disagreeOnZero && maxCV < 1 {
		// Repetitions disagree on a zero-mean point: total disagreement by
		// the MaxRNMSE convention.
		return 1
	}
	if !anyNonZeroMean {
		return 0
	}
	return maxCV
}

func meanAbs(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += math.Abs(v)
	}
	if len(x) == 0 {
		return 0
	}
	return s / float64(len(x))
}

// FilterNoiseWith is FilterNoise with a pluggable noise measure. Glitched
// counters (NaN/Inf readings, or a non-finite measure) are treated as
// maximally noisy and filtered regardless of tau. Events are analyzed in
// parallel with GOMAXPROCS workers; use FilterNoiseWithWorkers for explicit
// control (workers = 1 is the serial path).
func FilterNoiseWith(set *MeasurementSet, tau float64, measure NoiseMeasure) *NoiseReport {
	return FilterNoiseWithWorkers(set, tau, measure, 0)
}

// noiseVerdict is one event's outcome under the one-shot filter, computed
// independently of every other event's so the catalog dimension can fan out
// across workers.
type noiseVerdict struct {
	allZero bool
	keep    bool
	noise   float64
	mean    []float64
}

// judgeNoise is the per-event noise rule the one-shot filter applies: an
// all-zero event is discarded; otherwise its measure is reported (a
// non-finite measure as +Inf), and the event is kept — reduced to its mean
// vector — only if the measure is <= tau and every reading is finite.
// A NoiseProfile applies the same rule with MaxRNMSE, for every tau at once.
func judgeNoise(vectors [][]float64, tau float64, measure NoiseMeasure) noiseVerdict {
	if allZero(vectors) {
		return noiseVerdict{allZero: true}
	}
	d := noiseVerdict{noise: measure(vectors)}
	if math.IsNaN(d.noise) || math.IsInf(d.noise, 0) {
		d.noise = math.Inf(1)
	}
	if d.noise <= tau && allFinite(vectors) {
		d.keep = true
		d.mean = MeanVector(vectors)
	}
	return d
}

// newReport returns an empty report at tau with room for exactly kept and
// filtered events, each of its slices nil when empty.
func newReport(tau float64, kept, filtered int) *NoiseReport {
	r := &NoiseReport{Kept: make(map[string][]float64, kept), Tau: tau}
	if kept > 0 {
		r.KeptOrder = make([]string, 0, kept)
	}
	if filtered > 0 {
		r.Filtered = make([]string, 0, filtered)
	}
	return r
}

// record appends one event's verdict, judged at the report's tau, to the
// report.
func (r *NoiseReport) record(event string, d noiseVerdict) {
	if d.allZero {
		r.Discarded = append(r.Discarded, event)
		return
	}
	r.Variabilities = append(r.Variabilities, EventVariability{Event: event, MaxRNMSE: d.noise})
	if !d.keep {
		r.Filtered = append(r.Filtered, event)
		return
	}
	r.Kept[event] = d.mean
	r.KeptOrder = append(r.KeptOrder, event)
}

// FilterNoiseWithWorkers is FilterNoiseWith with an explicit worker count
// (<= 0 means GOMAXPROCS, 1 is serial). Each event's repetition reduction
// (RepVectors), noise measure and averaging are independent, so the
// per-event verdicts are computed concurrently and the report is assembled
// in measurement order afterwards, each of its slices sized exactly — the
// result is byte-identical for every worker count. It averages only the
// events it keeps; a NoiseProfile averages every non-zero event once, for
// all thresholds.
func FilterNoiseWithWorkers(set *MeasurementSet, tau float64, measure NoiseMeasure, workers int) *NoiseReport {
	verdicts := make([]noiseVerdict, len(set.Order))
	par.For(workers, len(set.Order), func(i int) {
		verdicts[i] = judgeNoise(set.RepVectors(set.Order[i]), tau, measure)
	})
	var zero, kept int
	for _, d := range verdicts {
		switch {
		case d.allZero:
			zero++
		case d.keep:
			kept++
		}
	}
	r := newReport(tau, kept, len(verdicts)-zero-kept)
	if n := len(verdicts) - zero; n > 0 {
		r.Variabilities = make([]EventVariability, 0, n)
	}
	if zero > 0 {
		r.Discarded = make([]string, 0, zero)
	}
	for i, d := range verdicts {
		r.record(set.Order[i], d)
	}
	return r
}

// TauSuggestion is the outcome of automatic threshold selection.
type TauSuggestion struct {
	// Tau is the suggested threshold: the geometric midpoint of the widest
	// gap in the sorted variability spectrum.
	Tau float64
	// GapDecades is the width of that gap in decades; a confident
	// separation has several decades of daylight.
	GapDecades float64
	// Below and Above count events on each side of the gap.
	Below, Above int
}

// floorVariability stands in for exact zeros on the log scale, mirroring how
// the paper plots zero-noise events at machine epsilon.
const floorVariability = 1e-16

// SuggestTau selects a noise threshold automatically from a variability
// spectrum (Section IV notes the choice is unambiguous whenever a wide gap
// separates the zero-noise cluster from the noisy tail; this automates it).
// It returns the geometric midpoint of the widest log-scale gap between
// consecutive sorted variabilities. With fewer than two events — or a
// degenerate single-cluster spectrum (gap under one decade) — the suggestion
// falls back to the paper's default of 1e-10 with GapDecades reporting the
// actual separation found.
func SuggestTau(vars []EventVariability) TauSuggestion {
	vals := make([]float64, 0, len(vars))
	for _, v := range vars {
		x := v.MaxRNMSE
		if x < floorVariability {
			x = floorVariability
		}
		vals = append(vals, x)
	}
	sort.Float64s(vals)
	if len(vals) < 2 {
		return TauSuggestion{Tau: 1e-10, GapDecades: 0, Below: len(vals)}
	}
	bestGap, bestIdx := 0.0, -1
	for i := 0; i+1 < len(vals); i++ {
		gap := math.Log10(vals[i+1]) - math.Log10(vals[i])
		if gap > bestGap {
			bestGap = gap
			bestIdx = i
		}
	}
	if bestIdx < 0 || bestGap < 1 {
		return TauSuggestion{Tau: 1e-10, GapDecades: bestGap, Below: len(vals)}
	}
	mid := math.Sqrt(vals[bestIdx] * vals[bestIdx+1])
	return TauSuggestion{
		Tau:        mid,
		GapDecades: bestGap,
		Below:      bestIdx + 1,
		Above:      len(vals) - bestIdx - 1,
	}
}
