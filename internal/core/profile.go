package core

import (
	"math"

	"github.com/perfmetrics/eventlens/internal/mat"
	"github.com/perfmetrics/eventlens/internal/par"
)

// NoiseProfile is a measurement set reduced to everything the noise stage
// computes before it cuts at tau (Section IV): per event, in measurement
// order, whether every reading is zero, and for each non-zero event its
// max-RNMSE (a non-finite one as +Inf), whether every reading is finite,
// and its mean vector. That reduction is the same for every tau, so a
// server keeps one profile per measurement key instead of the raw set and
// thresholds it per analysis configuration with no float work, and event
// validation reads the same reduction (Reduction). A profile is immutable:
// the reports Threshold returns share its mean vectors, its variabilities
// and its discarded events, which nobody may modify.
type NoiseProfile struct {
	// Benchmark, Platform, PointNames, Order and Dropped are the profiled
	// collection's fields of the same names.
	Benchmark  string
	Platform   string
	PointNames []string
	Order      []string
	Dropped    []string
	// index holds each Order entry's rank among the non-zero events, which
	// indexes variabilities, finite and means, or -1 for an all-zero event.
	index []int32
	// variabilities holds each non-zero event's noise, in measurement order;
	// discarded lists the all-zero events. Every cut shares both.
	variabilities []EventVariability
	discarded     []string
	// finite reports, per non-zero event, whether every reading is finite:
	// only finite events are kept at any tau.
	finite []bool
	// means holds the non-zero events' mean vectors back to back, one
	// len(PointNames) stretch each, in one exactly sized block. An event
	// with non-finite readings has one too, which no cut reads.
	means []float64
}

// mean returns the k-th non-zero event's mean vector, capped at its length.
func (p *NoiseProfile) mean(k int) []float64 {
	n := len(p.PointNames)
	return p.means[k*n : (k+1)*n : (k+1)*n]
}

// keptAt reports whether the k-th non-zero event is kept at tau.
func (p *NoiseProfile) keptAt(k int, tau float64) bool {
	return p.finite[k] && p.variabilities[k].MaxRNMSE <= tau
}

// ProfileNoise reduces a measurement set to its noise profile, measuring
// events in parallel with the given worker count (<= 0 means GOMAXPROCS, 1
// is serial); the profile is identical for every worker count. A
// rectangular set — every event measured once per (rep, thread), listed
// rep-major with reps and threads counted from 0, as Readings.Set
// assembles it — is read in place; any other set (a measurement file may
// hold one) is reduced through RepVectors. The profile shares the set's
// name slices but none of its readings, so the set can be dropped once
// profiled.
func ProfileNoise(set *MeasurementSet, workers int) *NoiseProfile {
	r := &Readings{Benchmark: set.Benchmark, Platform: set.Platform, PointNames: set.PointNames, Order: set.Order, Dropped: set.Dropped}
	if r.Reps, r.Threads = rectangular(set); r.Threads == 0 {
		return r.profile(setEvents{set}, workers)
	}
	r.Read = func(i int, dst [][]float64) {
		for j, m := range set.Events[set.Order[i]] {
			dst[j] = m.Vector
		}
	}
	return r.Profile(workers)
}

// rectangular returns the repetition and thread counts of a rectangular
// set, or 0, 0.
func rectangular(set *MeasurementSet) (reps, threads int) {
	if len(set.Order) == 0 {
		return 0, 0
	}
	first := set.Events[set.Order[0]]
	threads = 1
	for threads < len(first) && first[threads].Rep == 0 {
		threads++
	}
	for _, name := range set.Order {
		ms := set.Events[name]
		if len(ms) != len(first) || len(ms)%threads != 0 {
			return 0, 0
		}
		for j, m := range ms {
			if m.Rep != j/threads || m.Thread != j%threads {
				return 0, 0
			}
		}
	}
	return len(first) / threads, threads
}

// Readings is one rectangular collection as the measurement stage hands it
// to its two sinks: every event of Order read once at every (rep, thread)
// coordinate, each reading a vector over PointNames. Set assembles the raw
// measurement set from it; Profile reduces each event straight into the
// noise profile, with no set in between.
type Readings struct {
	// Benchmark, Platform, PointNames, Order and Dropped become the set's
	// or the profile's fields of the same names.
	Benchmark     string
	Platform      string
	PointNames    []string
	Order         []string
	Dropped       []string
	Reps, Threads int
	// Read fills dst, of length Reps × Threads, with the i-th Order event's
	// reading vectors: the one at (rep, thread) at rep × Threads + thread.
	// The vectors are read-only.
	Read func(i int, dst [][]float64)
}

// Set assembles the raw measurement set of the readings: each event's
// measurements in (rep, thread) order, all events' in one exactly sized
// block. The set shares the readings' vectors and name slices.
func (r *Readings) Set() *MeasurementSet {
	set := &MeasurementSet{
		Benchmark:  r.Benchmark,
		Platform:   r.Platform,
		PointNames: r.PointNames,
		Order:      r.Order,
		Events:     make(map[string][]Measurement, len(r.Order)),
		Dropped:    r.Dropped,
	}
	n := r.Reps * r.Threads
	block := make([]Measurement, len(r.Order)*n)
	vectors := make([][]float64, n)
	for i, name := range r.Order {
		ms := block[i*n : (i+1)*n : (i+1)*n]
		r.Read(i, vectors)
		for j, v := range vectors {
			ms[j] = Measurement{Rep: j / r.Threads, Thread: j % r.Threads, Vector: v}
		}
		set.Events[name] = ms
	}
	return set
}

// Profile reduces the readings to their noise profile on the given worker
// count (<= 0 means GOMAXPROCS, 1 is serial): exactly ProfileNoise of Set,
// for every worker count, without assembling the set. On one thread an
// event's readings are its repetition vectors and are read in place; on
// more, each repetition's per-point median over threads (MedianOverThreads)
// is taken in per-worker scratch. The profile shares the readings' name
// slices but none of their vectors.
func (r *Readings) Profile(workers int) *NoiseProfile {
	return r.profile(r, workers)
}

// events is what profile reduces: a collection's events, each yielding
// its repetition vectors.
type events interface {
	// zero reports whether every repetition vector of the i-th event is all
	// zero.
	zero(i int, w *reducer) bool
	// repVectors returns the i-th event's repetition vectors, in w's
	// scratch where they need any; they are valid until w's next use.
	repVectors(i int, w *reducer) [][]float64
}

// reducer is one worker's scratch.
type reducer struct {
	reads   [][]float64 // one event's readings, rep-major
	reps    [][]float64 // its repetition vectors, over threads > 1
	medians []float64   // their block
	vals    []float64   // one point's readings over threads
	means   []float64   // one mean per repetition vector
}

func (r *Readings) zero(i int, w *reducer) bool {
	r.fill(i, w)
	if r.Threads == 1 {
		return allZero(w.reads)
	}
	// Stop at the first non-zero median.
	for rep := 0; rep < r.Reps; rep++ {
		threads := w.reads[rep*r.Threads : (rep+1)*r.Threads]
		for p := range r.PointNames {
			if !mat.IsZero(medianAt(threads, p, w.vals)) {
				return false
			}
		}
	}
	return true
}

func (r *Readings) repVectors(i int, w *reducer) [][]float64 {
	r.fill(i, w)
	if r.Threads == 1 {
		return w.reads
	}
	n := len(r.PointNames)
	for rep := range w.reps {
		w.reps[rep] = medianInto(w.medians[rep*n:(rep+1)*n], w.reads[rep*r.Threads:(rep+1)*r.Threads], w.vals)
	}
	return w.reps
}

// fill reads the i-th event's readings into w, sizing w's scratch on its
// first use.
func (r *Readings) fill(i int, w *reducer) {
	if w.reads == nil {
		w.reads = make([][]float64, r.Reps*r.Threads)
		if r.Threads > 1 {
			w.reps = make([][]float64, r.Reps)
			w.medians = make([]float64, r.Reps*len(r.PointNames))
			w.vals = make([]float64, r.Threads)
		}
	}
	r.Read(i, w.reads)
}

// setEvents reduces a set that is not rectangular through RepVectors.
type setEvents struct{ set *MeasurementSet }

func (s setEvents) zero(i int, _ *reducer) bool {
	return allZero(s.set.RepVectors(s.set.Order[i]))
}

func (s setEvents) repVectors(i int, _ *reducer) [][]float64 {
	return s.set.RepVectors(s.set.Order[i])
}

// allZero reports whether every vector is all zero.
func allZero(vectors [][]float64) bool {
	for _, v := range vectors {
		if !mat.AllZero(v) {
			return false
		}
	}
	return true
}

// profile reduces every event of evs, the events of r.Order, to the
// profile of r, in two passes over a pool of at most workers scratch
// reducers: the first finds the all-zero events, so the second writes each
// non-zero event's reduction (reduce) straight into its exactly sized
// arrays.
func (r *Readings) profile(evs events, workers int) *NoiseProfile {
	p := &NoiseProfile{Benchmark: r.Benchmark, Platform: r.Platform, PointNames: r.PointNames, Order: r.Order, Dropped: r.Dropped}
	n := len(p.Order)
	// No more tasks run at once than par starts workers, so returning a
	// scratch never blocks.
	free := make(chan *reducer, min(par.Workers(workers), max(n, 1)))
	each := func(f func(i int, w *reducer)) {
		par.For(workers, n, func(i int) {
			var w *reducer
			select {
			case w = <-free:
			default:
				w = new(reducer)
			}
			defer func() { free <- w }()
			f(i, w)
		})
	}
	p.index = make([]int32, n)
	each(func(i int, w *reducer) {
		if evs.zero(i, w) {
			p.index[i] = -1
		}
	})
	zero := 0
	for _, k := range p.index {
		if k < 0 {
			zero++
		}
	}
	if nonZero := n - zero; nonZero > 0 {
		p.variabilities = make([]EventVariability, 0, nonZero)
		p.finite = make([]bool, nonZero)
		p.means = make([]float64, nonZero*len(p.PointNames))
	}
	if zero > 0 {
		p.discarded = make([]string, 0, zero)
	}
	for i, name := range p.Order {
		if p.index[i] < 0 {
			p.discarded = append(p.discarded, name)
			continue
		}
		p.index[i] = int32(len(p.variabilities))
		p.variabilities = append(p.variabilities, EventVariability{Event: name})
	}
	each(func(i int, w *reducer) {
		if k := p.index[i]; k >= 0 {
			p.reduce(int(k), evs.repVectors(i, w), w)
		}
	})
	return p
}

// reduce is the per-event reducer every profile applies: the k-th non-zero
// event's max-RNMSE over its repetition vectors (a non-finite one as +Inf),
// whether every reading is finite, and its mean vector, written into the
// profile's arrays. The floats are MaxRNMSE's and MeanVector's, bit for bit.
func (p *NoiseProfile) reduce(k int, vectors [][]float64, w *reducer) {
	if cap(w.means) < len(vectors) {
		w.means = make([]float64, len(vectors))
	}
	noise := maxRNMSE(vectors, w.means[:len(vectors)])
	if math.IsNaN(noise) || math.IsInf(noise, 0) {
		noise = math.Inf(1)
	}
	p.variabilities[k].MaxRNMSE = noise
	p.finite[k] = allFinite(vectors)
	meanInto(p.mean(k), vectors)
}

// Threshold cuts the profile at tau. The report equals
// FilterNoiseWithWorkers(set, tau, MaxRNMSE, w) on the profiled set for any
// worker count w; its Kept vectors, Variabilities and Discarded are the
// profile's own, shared and read-only. Its own slices are sized exactly and
// nil when empty, since a cache may keep the report for the life of the
// process.
func (p *NoiseProfile) Threshold(tau float64) *NoiseReport {
	kept := 0
	for k := range p.variabilities {
		if p.keptAt(k, tau) {
			kept++
		}
	}
	r := newReport(tau, kept, len(p.variabilities)-kept)
	r.Variabilities, r.Discarded = p.variabilities, p.discarded
	for k, v := range p.variabilities {
		if p.keptAt(k, tau) {
			r.Kept[v.Event] = p.mean(k)
			r.KeptOrder = append(r.KeptOrder, v.Event)
		} else {
			r.Filtered = append(r.Filtered, v.Event)
		}
	}
	return r
}

// Reduction returns the i-th event of Order reduced over its repetitions:
// exactly what MaxRNMSE and MeanVector return on its repetition vectors,
// non-finite readings included, except that an all-zero event's mean is
// nil. The mean is nil exactly when the event is all zero (its noise is
// then 0); any other event's mean is the profile's own and read-only.
func (p *NoiseProfile) Reduction(i int) (float64, []float64) {
	k := p.index[i]
	if k < 0 {
		return 0, nil
	}
	return p.variabilities[k].MaxRNMSE, p.mean(int(k))
}
