package analysis

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/perfmetrics/eventlens/internal/cat"
	"github.com/perfmetrics/eventlens/internal/core"
	"github.com/perfmetrics/eventlens/internal/suite"
)

// TestProfileMatchesCollectedSet is the oracle of the served profile path:
// ID.Profile, which reduces each event straight off the readings, must
// equal core.ProfileNoise over ID.Collect's raw set, and both must equal
// the one-shot filter on that set, bit for bit (diffReports,
// diffReductions), at tau 0, the benchmark's default and +Inf. Every
// built-in platform runs each benchmark of its class twice; the runs
// rotate through 1, 3 and 8 repetitions, 1, 2 and 4 threads (2 to 4 for
// dcache), minimal kernels off and on, no faults, recovered transient
// faults, dropped groups and corrupt readings, and 1, 2 and 8 workers.
func TestProfileMatchesCollectedSet(t *testing.T) {
	reg := registry(t)
	ctx := context.Background()
	// Under the default depth 2 and 3 retries every transient fault
	// recovers; with no retries, faulted groups are dropped.
	faults := []string{"", "seed=7,transient=0.05", "seed=7,transient=0.05,retries=0", "seed=3,corrupt=0.02"}
	var dropped, nonFinite, medians, minimal bool
	k := 0
	for _, platform := range reg.Names() {
		p, err := reg.Platform(platform)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range suite.All() {
			if b.Class != p.Class {
				continue
			}
			for range 2 {
				threads := []int{1, 2, 4}[k/3%3]
				if b.Name == "dcache" {
					threads = []int{2, 3, 4}[k/3%3]
				}
				run := cat.RunConfig{
					Reps:           []int{1, 3, 8}[k%3],
					Threads:        threads,
					Workers:        []int{1, 2, 8}[k/2%3],
					Faults:         faults[k/9%len(faults)],
					MinimalKernels: k%2 == 1,
				}
				k++
				name := fmt.Sprintf("%s/%s/%s", platform, b.Name, run)
				id, err := Request{Benchmark: b.Name, Platform: platform, Run: &run}.Resolve(reg, run.Workers)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				prof, err := id.Profile(ctx)
				set, setErr := id.Collect(ctx)
				if fmt.Sprint(err) != fmt.Sprint(setErr) {
					t.Fatalf("%s: profile error %v, collect error %v", name, err, setErr)
				}
				if err != nil {
					continue
				}
				ref := core.ProfileNoise(set, run.Workers)
				if d := diffProfiles(prof, ref, set); d != "" {
					t.Fatalf("%s: %s", name, d)
				}
				for _, tau := range []float64{0, b.Config.Tau, math.Inf(1)} {
					got, want := prof.Threshold(tau), core.FilterNoiseWithWorkers(set, tau, core.MaxRNMSE, run.Workers)
					if d := diffReports(got, want); d != "" {
						t.Fatalf("%s tau=%v: profile vs one-shot filter: %s", name, tau, d)
					}
					if d := diffReports(ref.Threshold(tau), want); d != "" {
						t.Fatalf("%s tau=%v: ProfileNoise vs one-shot filter: %s", name, tau, d)
					}
				}
				all := prof.Threshold(math.Inf(1))
				dropped = dropped || len(prof.Dropped) > 0
				nonFinite = nonFinite || len(all.Filtered) > 0
				medians = medians || run.Threads > 1
				minimal = minimal || len(prof.PointNames) < len(b.PointNames())
			}
		}
	}
	if !dropped || !nonFinite || !medians || !minimal {
		t.Fatalf("cases reached dropped groups %v, non-finite readings %v, thread medians %v, minimal kernels %v; each must happen", dropped, nonFinite, medians, minimal)
	}
}

// diffProfiles compares two profiles of set: their identity fields, and
// every event's Reduction bit for bit.
func diffProfiles(got, want *core.NoiseProfile, set *core.MeasurementSet) string {
	if got.Benchmark != want.Benchmark || got.Platform != want.Platform {
		return fmt.Sprintf("identity %s/%s, want %s/%s", got.Benchmark, got.Platform, want.Benchmark, want.Platform)
	}
	for _, f := range []struct {
		what      string
		got, want []string
	}{
		{"PointNames", got.PointNames, want.PointNames},
		{"Order", got.Order, want.Order},
		{"Order (set)", got.Order, set.Order},
		{"Dropped", got.Dropped, want.Dropped},
	} {
		if !slices.Equal(f.got, f.want) {
			return fmt.Sprintf("%s = %v, want %v", f.what, f.got, f.want)
		}
	}
	for i, event := range got.Order {
		gn, gm := got.Reduction(i)
		wn, wm := want.Reduction(i)
		if math.Float64bits(gn) != math.Float64bits(wn) || !sameBits(gm, wm) {
			return fmt.Sprintf("Reduction of %s = %v %v, want %v %v", event, gn, gm, wn, wm)
		}
	}
	return ""
}

// diffReports compares two noise reports field by field, floats bit for
// bit.
func diffReports(got, want *core.NoiseReport) string {
	if math.Float64bits(got.Tau) != math.Float64bits(want.Tau) {
		return fmt.Sprintf("Tau = %v, want %v", got.Tau, want.Tau)
	}
	if len(got.Variabilities) != len(want.Variabilities) {
		return fmt.Sprintf("%d variabilities, want %d", len(got.Variabilities), len(want.Variabilities))
	}
	for i, v := range got.Variabilities {
		w := want.Variabilities[i]
		if v.Event != w.Event || math.Float64bits(v.MaxRNMSE) != math.Float64bits(w.MaxRNMSE) {
			return fmt.Sprintf("variability %d = %+v, want %+v", i, v, w)
		}
	}
	for _, f := range []struct {
		what      string
		got, want []string
	}{
		{"Discarded", got.Discarded, want.Discarded},
		{"KeptOrder", got.KeptOrder, want.KeptOrder},
		{"Filtered", got.Filtered, want.Filtered},
	} {
		if !slices.Equal(f.got, f.want) {
			return fmt.Sprintf("%s = %s, want %s", f.what, strings.Join(f.got, " "), strings.Join(f.want, " "))
		}
	}
	if len(got.Kept) != len(want.Kept) {
		return fmt.Sprintf("%d kept vectors, want %d", len(got.Kept), len(want.Kept))
	}
	for _, event := range got.KeptOrder {
		if !sameBits(got.Kept[event], want.Kept[event]) {
			return fmt.Sprintf("kept %s = %v, want %v", event, got.Kept[event], want.Kept[event])
		}
	}
	return ""
}

// sameBits reports whether two vectors hold the same float64 bits.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}
