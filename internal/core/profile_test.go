package core_test

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"github.com/perfmetrics/eventlens/internal/core"
	"github.com/perfmetrics/eventlens/internal/mat"
	"github.com/perfmetrics/eventlens/internal/suite"
)

// refEvent is one event under the reference noise rule, before any cut.
type refEvent struct {
	name    string
	allZero bool
	noise   float64
	finite  bool
	mean    []float64 // non-zero, all-finite events only
}

// referenceEvents applies the per-tau noise rule the one-shot filter has
// always applied, written out on its own: RepVectors, then MaxRNMSE with a
// non-finite value read as +Inf. The mean vector a kept event is reduced to
// does not depend on tau, so it is computed once here.
func referenceEvents(set *core.MeasurementSet) []refEvent {
	out := make([]refEvent, 0, len(set.Order))
	for _, name := range set.Order {
		vectors := set.RepVectors(name)
		e := refEvent{name: name, allZero: true, finite: true}
		for _, v := range vectors {
			for _, x := range v {
				e.allZero = e.allZero && mat.IsZero(x)
				e.finite = e.finite && !math.IsNaN(x) && !math.IsInf(x, 0)
			}
		}
		if !e.allZero {
			e.noise = core.MaxRNMSE(vectors)
			if math.IsNaN(e.noise) || math.IsInf(e.noise, 0) {
				e.noise = math.Inf(1)
			}
			if e.finite {
				e.mean = core.MeanVector(vectors)
			}
		}
		out = append(out, e)
	}
	return out
}

// referenceReport cuts reference events at tau: all-zero events are
// discarded, and an event is kept iff its noise is <= tau and every reading
// is finite.
func referenceReport(events []refEvent, tau float64) *core.NoiseReport {
	r := &core.NoiseReport{Kept: map[string][]float64{}, Tau: tau}
	for _, e := range events {
		switch {
		case e.allZero:
			r.Discarded = append(r.Discarded, e.name)
			continue
		case e.noise <= tau && e.finite:
			r.Kept[e.name] = e.mean
			r.KeptOrder = append(r.KeptOrder, e.name)
		default:
			r.Filtered = append(r.Filtered, e.name)
		}
		r.Variabilities = append(r.Variabilities, core.EventVariability{Event: e.name, MaxRNMSE: e.noise})
	}
	return r
}

// diffNoise names the first field in which got differs from want, comparing
// floats by bit pattern; "" means the reports are equal.
func diffNoise(got, want *core.NoiseReport) string {
	bits := math.Float64bits
	if bits(got.Tau) != bits(want.Tau) {
		return fmt.Sprintf("Tau %v, want %v", got.Tau, want.Tau)
	}
	if len(got.Variabilities) != len(want.Variabilities) {
		return fmt.Sprintf("%d variabilities, want %d", len(got.Variabilities), len(want.Variabilities))
	}
	for i, g := range got.Variabilities {
		w := want.Variabilities[i]
		if g.Event != w.Event || bits(g.MaxRNMSE) != bits(w.MaxRNMSE) {
			return fmt.Sprintf("variability %d = %+v, want %+v", i, g, w)
		}
	}
	for _, f := range []struct {
		name      string
		got, want []string
	}{
		{"Discarded", got.Discarded, want.Discarded},
		{"Filtered", got.Filtered, want.Filtered},
		{"KeptOrder", got.KeptOrder, want.KeptOrder},
	} {
		if !slices.Equal(f.got, f.want) || (f.got == nil) != (f.want == nil) {
			return fmt.Sprintf("%s = %q, want %q", f.name, f.got, f.want)
		}
	}
	if len(got.Kept) != len(want.Kept) {
		return fmt.Sprintf("%d kept vectors, want %d", len(got.Kept), len(want.Kept))
	}
	for _, name := range want.KeptOrder {
		w := want.Kept[name]
		g, ok := got.Kept[name]
		if !ok || len(g) != len(w) {
			return fmt.Sprintf("Kept[%q] = %v, want %v", name, g, w)
		}
		for i := range w {
			if bits(g[i]) != bits(w[i]) {
				return fmt.Sprintf("Kept[%q][%d] = %v, want %v", name, i, g[i], w[i])
			}
		}
	}
	return ""
}

// diffReductions names the first event whose Reduction differs, bit for
// bit, from MaxRNMSE and MeanVector of its repetition vectors — the
// reduction event validation reads — with a mean that is nil exactly when
// the event is all zero; "" means every event's agrees.
func diffReductions(set *core.MeasurementSet, prof *core.NoiseProfile) string {
	for i, name := range set.Order {
		vectors := set.RepVectors(name)
		noise, mean := prof.Reduction(i)
		want := core.MeanVector(vectors)
		if !slices.ContainsFunc(vectors, func(v []float64) bool { return !mat.AllZero(v) }) {
			want = nil
		}
		if math.Float64bits(noise) != math.Float64bits(core.MaxRNMSE(vectors)) || (mean == nil) != (want == nil) || len(mean) != len(want) {
			return fmt.Sprintf("event %q: reduction (%v, %v), want (%v, %v)", name, noise, mean, core.MaxRNMSE(vectors), want)
		}
		for k := range want {
			if math.Float64bits(mean[k]) != math.Float64bits(want[k]) {
				return fmt.Sprintf("event %q: mean[%d] = %v, want %v", name, k, mean[k], want[k])
			}
		}
	}
	return ""
}

// around returns v with both of its Nextafter neighbours: the thresholds at
// which a cut at v changes.
func around(v float64) [3]float64 {
	return [3]float64{math.Nextafter(v, math.Inf(-1)), v, math.Nextafter(v, math.Inf(1))}
}

// profileWorkers are the worker counts the profile oracle builds at.
var profileWorkers = []int{1, 8}

// oneShotEvents bounds how many events per set the one-shot filter is
// checked around: each check is a full noise pass (about 10 ms on
// gpu-flops' 1,160 events), where cutting a profile is one pass over its
// verdicts.
const oneShotEvents = 12

// checkNoiseProfile asserts that set's noise profile, built at each worker
// count, equals the reference rule at 0, +Inf, the configured tau and every
// event's variability with both of its Nextafter neighbours; and that
// FilterNoiseWithWorkers does at 0, +Inf, the configured tau and around
// every k-th event's variability, k spreading the checks over the set.
func checkNoiseProfile(t *testing.T, set *core.MeasurementSet, configured float64) {
	t.Helper()
	events := referenceEvents(set)
	profiles := make([]*core.NoiseProfile, len(profileWorkers))
	for i, w := range profileWorkers {
		profiles[i] = core.ProfileNoise(set, w)
		p := profiles[i]
		if p.Benchmark != set.Benchmark || p.Platform != set.Platform ||
			fmt.Sprint(p.PointNames, p.Order, p.Dropped) != fmt.Sprint(set.PointNames, set.Order, set.Dropped) {
			t.Fatalf("workers=%d: profile identity fields differ from the set's", w)
		}
		if d := diffReductions(set, p); d != "" {
			t.Fatalf("workers=%d: %s", w, d)
		}
	}
	cuts := map[float64]bool{0: true, math.Inf(1): true, configured: true} // value: check the one-shot filter too
	step, n := (len(events)+oneShotEvents-1)/oneShotEvents, 0
	for _, e := range events {
		if e.allZero {
			continue
		}
		for _, tau := range around(e.noise) {
			cuts[tau] = cuts[tau] || n%step == 0
		}
		n++
	}
	taus := make([]float64, 0, len(cuts))
	for tau := range cuts {
		taus = append(taus, tau)
	}
	sort.Float64s(taus)
	for _, tau := range taus {
		want := referenceReport(events, tau)
		for j, w := range profileWorkers {
			if d := diffNoise(profiles[j].Threshold(tau), want); d != "" {
				t.Fatalf("workers=%d tau=%v: profile: %s", w, tau, d)
			}
			if !cuts[tau] {
				continue
			}
			if d := diffNoise(core.FilterNoiseWithWorkers(set, tau, core.MaxRNMSE, w), want); d != "" {
				t.Fatalf("workers=%d tau=%v: FilterNoiseWithWorkers: %s", w, tau, d)
			}
		}
	}
}

// TestNoiseProfileMatchesReference is the profile oracle on the four
// benchmarks' default sets.
func TestNoiseProfileMatchesReference(t *testing.T) {
	for _, b := range suite.All() {
		t.Run(b.Name, func(t *testing.T) {
			set, err := b.Collect(context.Background(), b.DefaultRun)
			if err != nil {
				t.Fatal(err)
			}
			checkNoiseProfile(t, set, b.Config.Tau)
		})
	}
}

// edgeSet is a small set with every case the noise rule distinguishes, at
// two threads (an even count, so thread medians average two readings). As
// built it is rectangular, so ProfileNoise reads it in place; uneven adds
// an event measured in one repetition only, which sends the whole set
// through RepVectors.
func edgeSet(t *testing.T, uneven bool) *core.MeasurementSet {
	t.Helper()
	nan, inf, negZero, big := math.NaN(), math.Inf(1), math.Copysign(0, -1), 8.9e307
	// events maps an event to its readings per repetition, then per thread.
	events := []struct {
		name string
		reps [][][]float64
	}{
		{"zero", [][][]float64{{{0, negZero, 0}, {0, 0, 0}}, {{negZero, 0, 0}, {0, 0, negZero}}}},
		{"exact", [][][]float64{{{1, 2, 3}, {1, 2, 3}}, {{1, 2, 3}, {1, 2, 3}}}},
		{"noisy", [][][]float64{{{1, 2, 3}, {1.5, 2, 3}}, {{1, 2.5, 3}, {1, 2, 3.25}}}},
		{"zero-rep", [][][]float64{{{0, 0, 0}, {0, 0, 0}}, {{1, 1, 1}, {1, 1, 1}}}},
		{"nan", [][][]float64{{{1, nan, 3}, {1, 2, 3}}, {{1, 2, 3}, {1, 2, 3}}}},
		{"inf", [][][]float64{{{1, 2, inf}, {1, 2, 3}}, {{1, 2, 3}, {1, 2, 3}}}},
		// Identical +Inf readings measure 0 but are still not finite.
		{"inf-steady", [][][]float64{{{inf, 2, 3}, {inf, 2, 3}}, {{inf, 2, 3}, {inf, 2, 3}}}},
		// Finite readings whose difference norm overflows measure +Inf.
		{"overflow", [][][]float64{{{big, -big, 1}, {big, -big, 1}}, {{-big, big, 1}, {-big, big, 1}}}},
		{"single-rep", [][][]float64{{{4, 5, 6}, {4, 5.5, 6}}}},
	}
	if !uneven {
		events = events[:len(events)-1] // all but single-rep
	}
	set := core.NewMeasurementSet("edge", "edge-sim", []string{"p0", "p1", "p2"})
	for _, e := range events {
		for r, threads := range e.reps {
			for th, v := range threads {
				if err := set.Add(e.name, core.Measurement{Rep: r, Thread: th, Vector: v}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	set.Dropped = []string{"lost"}
	return set
}

// edgeShapes are the two edge sets, one per ProfileNoise path, and what
// each keeps at the paper's tau.
var edgeShapes = []struct {
	name   string
	uneven bool
	kept   string
}{
	{"rectangular", false, "[exact]"},
	{"uneven", true, "[exact single-rep]"},
}

func TestNoiseProfileEdgeCases(t *testing.T) {
	for _, shape := range edgeShapes {
		t.Run(shape.name, func(t *testing.T) {
			set := edgeSet(t, shape.uneven)
			checkNoiseProfile(t, set, 1e-10)
			// Thresholds no analysis configuration passes, which the
			// library still accepts: both paths must keep nothing.
			events := referenceEvents(set)
			for _, tau := range []float64{math.NaN(), -1, math.Inf(-1)} {
				want := referenceReport(events, tau)
				if d := diffNoise(core.ProfileNoise(set, 1).Threshold(tau), want); d != "" {
					t.Fatalf("tau=%v: profile: %s", tau, d)
				}
				if d := diffNoise(core.FilterNoiseWithWorkers(set, tau, core.MaxRNMSE, 1), want); d != "" {
					t.Fatalf("tau=%v: FilterNoiseWithWorkers: %s", tau, d)
				}
			}
			// The set reaches every branch of the rule: a discard,
			// non-finite readings filtered even at +Inf, a +Inf measure
			// kept only there, and kept and filtered events at the paper's
			// tau.
			prof := core.ProfileNoise(set, 1)
			all := prof.Threshold(math.Inf(1))
			if got := fmt.Sprint(all.Discarded, all.Filtered); got != "[zero] [nan inf inf-steady]" {
				t.Fatalf("discarded and filtered at +Inf = %s", got)
			}
			var overflow core.EventVariability
			for _, v := range all.Variabilities {
				if v.Event == "overflow" {
					overflow = v
				}
			}
			if !math.IsInf(overflow.MaxRNMSE, 1) {
				t.Fatalf("overflow variability = %+v, want +Inf", overflow)
			}
			if got := fmt.Sprint(prof.Threshold(1e-10).KeptOrder); got != shape.kept {
				t.Fatalf("kept at 1e-10 = %s, want %s", got, shape.kept)
			}
		})
	}
}

// TestNoiseProfileCutsShareSpectrum pins what a cached report costs: every
// cut of one profile shares the profile's Variabilities and Discarded, and
// each slice a report owns is sized exactly, for the profile's cuts and the
// one-shot filter's alike.
func TestNoiseProfileCutsShareSpectrum(t *testing.T) {
	for _, shape := range edgeShapes {
		set := edgeSet(t, shape.uneven)
		prof := core.ProfileNoise(set, 1)
		tight, all := prof.Threshold(1e-10), prof.Threshold(math.Inf(1))
		if &tight.Variabilities[0] != &all.Variabilities[0] || &tight.Discarded[0] != &all.Discarded[0] {
			t.Fatalf("%s: two cuts of one profile hold separate copies of its variabilities or discarded events", shape.name)
		}
		for _, r := range []*core.NoiseReport{tight, all, core.FilterNoiseWithWorkers(set, 1e-10, core.MaxRNMSE, 1)} {
			for _, f := range []struct {
				name     string
				len, cap int
			}{
				{"Variabilities", len(r.Variabilities), cap(r.Variabilities)},
				{"Discarded", len(r.Discarded), cap(r.Discarded)},
				{"Filtered", len(r.Filtered), cap(r.Filtered)},
				{"KeptOrder", len(r.KeptOrder), cap(r.KeptOrder)},
			} {
				if f.len == 0 || f.cap != f.len {
					t.Errorf("%s tau=%v: %s has length %d and capacity %d, want equal and nonzero", shape.name, r.Tau, f.name, f.len, f.cap)
				}
			}
		}
	}
}

// FuzzNoiseProfile builds small random sets — 1 to 4 repetitions, 1 to 3
// threads, 1 to 3 points and 1 to 4 events, with readings drawn from 0,
// -0, NaN, ±Inf and ordinary values — and checks the profile cut at a
// random tau against the reference rule. data[0:4] picks the shape; the
// rest, cycled, picks the readings. The seeds are the corpus under
// testdata/fuzz/FuzzNoiseProfile.
func FuzzNoiseProfile(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, tau float64) {
		if len(data) < 4 {
			return
		}
		reps, threads, points, nEvents := 1+int(data[0]%4), 1+int(data[1]%3), 1+int(data[2]%3), 1+int(data[3]%4)
		readings := data[4:]
		next := 0
		reading := func() float64 {
			if len(readings) == 0 {
				return 0
			}
			b := readings[next%len(readings)]
			next++
			return fuzzReading(b)
		}
		names := make([]string, points)
		for i := range names {
			names[i] = fmt.Sprintf("p%d", i)
		}
		set := core.NewMeasurementSet("fuzz", "fuzz-sim", names)
		for e := 0; e < nEvents; e++ {
			for r := 0; r < reps; r++ {
				for th := 0; th < threads; th++ {
					v := make([]float64, points)
					for i := range v {
						v[i] = reading()
					}
					if err := set.Add(fmt.Sprintf("e%d", e), core.Measurement{Rep: r, Thread: th, Vector: v}); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		want := referenceReport(referenceEvents(set), tau)
		prof := core.ProfileNoise(set, 1)
		if d := diffNoise(prof.Threshold(tau), want); d != "" {
			t.Fatalf("tau=%v: %s", tau, d)
		}
		if d := diffReductions(set, prof); d != "" {
			t.Fatal(d)
		}
	})
}

// fuzzSpecial are the readings the first byte values map to.
var fuzzSpecial = []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}

// fuzzReading maps a byte to a reading: a special value, or a multiple of
// 1/8 in [-11.9, 18.75].
func fuzzReading(b byte) float64 {
	if int(b) < len(fuzzSpecial) {
		return fuzzSpecial[b]
	}
	return (float64(b) - 100) / 8
}
