package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestPercentileNearestRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10}, {0.01, 1}, {0.1, 1}, {0.11, 2},
	} {
		if got := percentile(sorted, c.p); !near(got, c.want) {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); !near(got, 0) {
		t.Errorf("percentile(nil) = %g, want 0", got)
	}
}

// The expectations are Python's statistics.quantiles(xs, n=4), the method
// the benchmark's spread rule is stated in.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{5, 1, 4, 2.5, 3}, 1.75, 3, 4.5},
		{[]float64{0.31, 0.29, 0.33, 0.30, 0.35, 0.28, 0.32}, 0.29, 0.31, 0.33},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestParseProm(t *testing.T) {
	text := `# HELP eventlensd_cache_hits_total Analysis cache hits.
# TYPE eventlensd_cache_hits_total counter
eventlensd_cache_hits_total 12
eventlensd_shard_requests_total{outcome="forwarded"} 5
eventlensd_shard_requests_total{outcome="local"} 7
eventlensd_http_request_seconds_bucket{le="0.001"} 3
eventlensd_http_request_seconds_sum 0.25

`
	p, err := parseProm(text)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		family string
		want   float64
	}{
		{"eventlensd_cache_hits_total", 12},
		{`eventlensd_shard_requests_total{outcome="forwarded"}`, 5},
		{"eventlensd_shard_requests_total", 12},
		{"eventlensd_http_request_seconds_sum", 0.25},
		{"eventlensd_http_request_seconds", 0},
		{"eventlensd_cache_hits", 0},
		{"eventlensd_store_hits_total", 0},
	} {
		if got := p.family(c.family); !near(got, c.want) {
			t.Errorf("family(%s) = %g, want %g", c.family, got, c.want)
		}
	}
	after := promText{}
	after.add(p)
	after.add(promText{"eventlensd_cache_hits_total": 3})
	if got := delta(p, after, "eventlensd_cache_hits_total"); !near(got, 3) {
		t.Errorf("delta = %g, want 3", got)
	}
	if _, err := parseProm("eventlensd_cache_hits_total\n"); err == nil {
		t.Error("a series without a value parsed")
	}
	if _, err := parseProm("eventlensd_cache_hits_total twelve\n"); err == nil {
		t.Error("a non-numeric value parsed")
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	ns := func(ms int64) int64 { return ms * int64(time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "server.request", StartNS: ns(0), EndNS: ns(100)},
		{ID: 2, Parent: 1, Name: "cat.collect.branch", StartNS: ns(10), EndNS: ns(40)},
		{ID: 3, Parent: 1, Name: "core.noise", StartNS: ns(30), EndNS: ns(60)}, // overlaps span 2
		{ID: 4, Parent: 1, Name: "store.put", StartNS: ns(90), EndNS: ns(120)}, // runs past its parent
		{ID: 5, Parent: 3, Name: "core.project", StartNS: ns(35), EndNS: ns(45)},
		{ID: 6, Name: "server.request", StartNS: ns(200), EndNS: ns(210)},
	}
	want := []time.Duration{40, 30, 20, 30, 10, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i]*time.Millisecond {
			t.Errorf("self time of span %d = %v, want %v", spans[i].ID, got[i], want[i]*time.Millisecond)
		}
	}
	st := collectSpans(spans)
	if st.self["server"] != 50*time.Millisecond || st.self["core"] != 30*time.Millisecond {
		t.Errorf("self by layer = %v", st.self)
	}
}

func TestVerdict(t *testing.T) {
	tput := metricDef{name: "throughput_rps", better: "higher", bound: 0.1}
	lat := metricDef{name: "latency_p50_ms", better: "lower", bound: 0.1}
	unbounded := metricDef{name: "latency_p90_ms", better: "lower"}
	tight := func(m float64) stats {
		return stats{Median: m, Q1: m * 0.99, Q3: m * 1.01, Values: []float64{m * 0.99, m, m * 1.01}}
	}
	// A single run on each side has no spread at all.
	exact := func(m float64) stats { return stats{Median: m, Q1: m, Q3: m, Values: []float64{m}} }
	wide := func(m float64) stats {
		return stats{Median: m, Q1: m * 0.8, Q3: m * 1.2, Values: []float64{m * 0.8, m, m * 1.2}}
	}
	for _, c := range []struct {
		d         metricDef
		base, now stats
		want      string
	}{
		{tput, tight(100), tight(103), "same"},
		{tput, tight(100), tight(80), "worse"},
		{tput, tight(100), tight(120), "better"},
		{lat, tight(100), tight(120), "worse"},
		{lat, tight(100), tight(80), "better"},
		{lat, wide(100), tight(130), "unresolved"},
		{lat, wide(100), tight(40), "better"},
		{unbounded, tight(100), tight(100.5), "unresolved"},
		{unbounded, exact(100), exact(101), "unresolved"},
		{unbounded, exact(100), exact(99), "better"},
	} {
		if got := verdict(c.d, c.base, c.now); got != c.want {
			t.Errorf("verdict(%s, %g -> %g) = %s, want %s", c.d.name, c.base.Median, c.now.Median, got, c.want)
		}
	}
}
