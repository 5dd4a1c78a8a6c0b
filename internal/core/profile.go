package core

import "math"

// NoiseProfile is a measurement set reduced to everything the noise stage
// computes before it cuts at tau (Section IV): per event, in measurement
// order, whether every reading is zero, the event's max-RNMSE (a
// non-finite one as +Inf), and — for non-zero events — its mean vector.
// That reduction is the same for every tau, so a server keeps one profile
// per measurement key instead of the raw set and thresholds it per
// analysis configuration with no float work, and event validation reads
// the same reduction (Reduction). A profile is immutable: the reports
// Threshold returns share its mean vectors, its variabilities and its
// discarded events, which nobody may modify.
type NoiseProfile struct {
	// Benchmark, Platform, PointNames, Order and Dropped are the profiled
	// set's fields of the same names.
	Benchmark  string
	Platform   string
	PointNames []string
	Order      []string
	Dropped    []string
	// verdicts holds each Order entry's verdict, judged at tau = +Inf: it
	// is kept exactly when every reading is finite. An unkept non-zero
	// event still carries its mean, which no cut reads; only sets with
	// non-finite readings (corrupt-fault injection) have such events.
	verdicts []noiseVerdict
	// spectrum is every cut's tau-independent part, built once.
	spectrum noiseSpectrum
}

// ProfileNoise reduces a measurement set to its noise profile, measuring
// events in parallel with the given worker count (<= 0 means GOMAXPROCS, 1
// is serial); the profile is identical for every worker count. It shares
// the set's name slices but none of its readings, so the set can be dropped
// once profiled.
func ProfileNoise(set *MeasurementSet, workers int) *NoiseProfile {
	verdicts := judgeSet(set, math.Inf(1), MaxRNMSE, workers)
	for i := range verdicts {
		if d := &verdicts[i]; !d.allZero && !d.keep {
			d.mean = MeanVector(set.RepVectors(set.Order[i]))
		}
	}
	return &NoiseProfile{
		Benchmark:  set.Benchmark,
		Platform:   set.Platform,
		PointNames: set.PointNames,
		Order:      set.Order,
		Dropped:    set.Dropped,
		verdicts:   verdicts,
		spectrum:   newNoiseSpectrum(set.Order, verdicts),
	}
}

// Threshold cuts the profile at tau. The report equals
// FilterNoiseWithWorkers(set, tau, MaxRNMSE, w) on the profiled set for any
// worker count w; its Kept vectors, Variabilities and Discarded are the
// profile's own, shared and read-only.
func (p *NoiseProfile) Threshold(tau float64) *NoiseReport {
	return p.spectrum.cut(p.Order, p.verdicts, tau)
}

// Reduction returns the i-th event of Order reduced over its repetitions:
// exactly what MaxRNMSE and MeanVector return on its repetition vectors,
// non-finite readings included. An all-zero event's are 0 and a new zero
// vector; any other event's mean is the profile's own and read-only.
func (p *NoiseProfile) Reduction(i int) (float64, []float64) {
	d := p.verdicts[i]
	if d.allZero {
		return 0, make([]float64, len(p.PointNames))
	}
	return d.noise, d.mean
}
