package obs

import (
	"strings"
	"testing"

	"github.com/perfmetrics/eventlens/internal/par"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	g := r.Gauge("g", "a gauge")
	c.Inc()
	c.Add(4)
	g.Inc()
	g.Inc()
	g.Dec()
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	if g.Value() != 1 {
		t.Fatalf("gauge = %d", g.Value())
	}
}

// TestGaugeFunc pins the callback gauge: the value is read at scrape time
// from the owning subsystem, renders as a Prometheus gauge, and tracks the
// source without any mirrored writes.
func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	var entries int64 = 3
	g := r.GaugeFunc("store_entries", "entries on disk", func() int64 { return entries })
	if g.Value() != 3 {
		t.Fatalf("gauge func = %d", g.Value())
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "# TYPE store_entries gauge\nstore_entries 3\n") {
		t.Fatalf("render missing gauge:\n%s", b.String())
	}
	entries = 9
	b.Reset()
	_ = r.WritePrometheus(&b)
	if !strings.Contains(b.String(), "store_entries 9") {
		t.Fatalf("scrape did not re-read callback:\n%s", b.String())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 56.05 {
		t.Fatalf("sum = %g", h.Sum())
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="10"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		`lat_seconds_count 5`,
		"# TYPE lat_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCounterVecSeriesSortedAndStable(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("requests_total", "requests", "route", "code")
	v.With("/v1/analyze", "200").Add(3)
	v.With("/healthz", "200").Inc()
	v.With("/v1/analyze", "400").Inc()
	// Same labels must yield the same counter.
	if v.With("/v1/analyze", "200").Value() != 3 {
		t.Fatal("labelled counter not shared")
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	wantOrder := []string{
		`requests_total{route="/healthz",code="200"} 1`,
		`requests_total{route="/v1/analyze",code="200"} 3`,
		`requests_total{route="/v1/analyze",code="400"} 1`,
	}
	last := -1
	for _, line := range wantOrder {
		idx := strings.Index(out, line)
		if idx < 0 {
			t.Fatalf("output missing %q:\n%s", line, out)
		}
		if idx < last {
			t.Fatalf("series out of order:\n%s", out)
		}
		last = idx
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate name")
		}
	}()
	r := NewRegistry()
	r.Counter("x", "first")
	r.Counter("x", "second")
}

// TestConcurrentUse exercises every metric type from many goroutines; run
// with -race this is the package's thread-safety proof.
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "c")
	g := r.Gauge("g", "g")
	h := r.Histogram("h_seconds", "h", DefLatencyBuckets())
	v := r.CounterVec("v_total", "v", "route")
	const workers, iters = 8, 500
	par.For(workers, workers, func(int) {
		for i := 0; i < iters; i++ {
			c.Inc()
			g.Inc()
			h.Observe(float64(i%7) * 0.01)
			v.With("/r").Inc()
			if i%100 == 0 {
				var b strings.Builder
				_ = r.WritePrometheus(&b)
			}
		}
	})
	if c.Value() != workers*iters {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*iters)
	}
	if h.Count() != workers*iters {
		t.Fatalf("histogram count = %d", h.Count())
	}
	if v.With("/r").Value() != workers*iters {
		t.Fatalf("vec counter = %d", v.With("/r").Value())
	}
}
