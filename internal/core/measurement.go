package core

import (
	"fmt"
	"slices"
	"sort"
)

// Measurement is one measurement vector of a raw event: the event's readings
// over all benchmark points, for one repetition on one thread.
type Measurement struct {
	Rep    int
	Thread int
	Vector []float64
}

// MeasurementSet holds all raw-event measurements from one CAT benchmark run
// on one platform.
type MeasurementSet struct {
	// Benchmark and Platform identify the data's origin.
	Benchmark string
	Platform  string
	// PointNames labels the benchmark points; every measurement vector has
	// this length.
	PointNames []string
	// Order lists event names in measurement (catalog) order; this order is
	// what makes tie-breaking in the pivoted QR deterministic.
	Order []string
	// Events maps each event name to its measurements across repetitions
	// and threads.
	Events map[string][]Measurement
	// Dropped lists events (in catalog order) whose measurements were
	// abandoned after unrecoverable collection faults — a group read that
	// stayed faulted past the retry budget under fault injection. Dropped
	// events carry no entries in Order or Events; analysis proceeds without
	// them and reports them as unmeasured.
	Dropped []string
}

// NewMeasurementSet constructs an empty set.
func NewMeasurementSet(benchmark, platform string, pointNames []string) *MeasurementSet {
	return &MeasurementSet{
		Benchmark:  benchmark,
		Platform:   platform,
		PointNames: pointNames,
		Events:     make(map[string][]Measurement),
	}
}

// Add appends a measurement for an event, registering the event in Order on
// first sight. It rejects vectors of the wrong length.
func (s *MeasurementSet) Add(event string, m Measurement) error {
	if len(m.Vector) != len(s.PointNames) {
		return fmt.Errorf("core: event %q measurement has %d points, want %d",
			event, len(m.Vector), len(s.PointNames))
	}
	if _, seen := s.Events[event]; !seen {
		s.Order = append(s.Order, event)
	}
	s.Events[event] = append(s.Events[event], m)
	return nil
}

// Validate checks internal consistency: Order and Events agree, all vectors
// have the right length, and every event has at least one measurement.
func (s *MeasurementSet) Validate() error {
	if len(s.Order) != len(s.Events) {
		return fmt.Errorf("core: order lists %d events, map holds %d", len(s.Order), len(s.Events))
	}
	for _, name := range s.Order {
		ms, ok := s.Events[name]
		if !ok {
			return fmt.Errorf("core: event %q in order but not in map", name)
		}
		if len(ms) == 0 {
			return fmt.Errorf("core: event %q has no measurements", name)
		}
		for _, m := range ms {
			if len(m.Vector) != len(s.PointNames) {
				return fmt.Errorf("core: event %q has a vector of length %d, want %d",
					name, len(m.Vector), len(s.PointNames))
			}
		}
	}
	return nil
}

// Reps returns the sorted distinct repetition indices present for an event.
func (s *MeasurementSet) Reps(event string) []int {
	seen := map[int]bool{}
	for _, m := range s.Events[event] {
		seen[m.Rep] = true
	}
	var out []int
	for r := range seen {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// RepVectors reduces an event's measurements to one vector per repetition by
// taking the per-point median across threads (Section IV: the benchmark uses
// multiple measuring threads and keeps the median reading to suppress
// noise). Every vector is a new copy: a repetition measured on a single
// thread is its reading, copied. ProfileNoise reads rectangular sets
// without it; only sets with uneven repetitions or threads (a measurement
// file) go through it.
func (s *MeasurementSet) RepVectors(event string) [][]float64 {
	byRep := map[int][][]float64{}
	for _, m := range s.Events[event] {
		byRep[m.Rep] = append(byRep[m.Rep], m.Vector)
	}
	reps := s.Reps(event)
	out := make([][]float64, 0, len(reps))
	for _, r := range reps {
		out = append(out, MedianOverThreads(byRep[r]))
	}
	return out
}

// MedianOverThreads returns the per-point median of a group of equal-length
// vectors. For an even count it averages the two central values. The input
// vectors are never modified.
//
// It runs once per (event, rep, point) coordinate on every CAT benchmark's
// hot path, so each point's values are sorted in one reused scratch slice;
// slices.Sort allocates nothing and orders exactly like sort.Float64s
// (ascending, NaNs first).
func MedianOverThreads(vectors [][]float64) []float64 {
	out := make([]float64, len(vectors[0]))
	if len(vectors) == 1 {
		copy(out, vectors[0])
		return out
	}
	return medianInto(out, vectors, make([]float64, len(vectors)))
}

// medianInto writes the per-point median of vectors (at least two) into
// out, sorting each point's values in vals (one per vector), and returns
// out.
func medianInto(out []float64, vectors [][]float64, vals []float64) []float64 {
	for p := range out {
		out[p] = medianAt(vectors, p, vals)
	}
	return out
}

// medianAt is the median of point p over vectors, sorted in vals (one
// slot per vector).
func medianAt(vectors [][]float64, p int, vals []float64) float64 {
	for t, v := range vectors {
		vals[t] = v[p]
	}
	return Median(vals)
}

// Median sorts vals in place and returns their median: the middle value,
// or the mean of the middle two. It is MedianOverThreads at one point, so
// a caller holding one point's values over threads reduces them exactly as
// the measurements are reduced.
func Median(vals []float64) float64 {
	slices.Sort(vals)
	mid := len(vals) / 2
	if len(vals)%2 == 1 {
		return vals[mid]
	}
	return (vals[mid-1] + vals[mid]) / 2
}

// MeanVector returns the elementwise mean of equal-length vectors.
func MeanVector(vectors [][]float64) []float64 {
	return meanInto(make([]float64, len(vectors[0])), vectors)
}

// meanInto writes the elementwise mean of vectors into out, which must be
// all (positive) zero, summing them in order; it returns out.
func meanInto(out []float64, vectors [][]float64) []float64 {
	for _, v := range vectors {
		for i, x := range v {
			out[i] += x
		}
	}
	for i := range out {
		out[i] /= float64(len(vectors))
	}
	return out
}
