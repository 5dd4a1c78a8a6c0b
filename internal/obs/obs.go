// Package obs is a minimal, dependency-free metrics library for the
// eventlensd daemon: counters, gauges and histograms registered in a
// Registry that renders itself in the Prometheus text exposition format.
//
// It deliberately implements only what the server needs — labelled counters
// (requests by route/status), plain counters and gauges (cache hits, queue
// depth), and fixed-bucket latency histograms — with lock-free hot paths
// (sync/atomic) and deterministic, sorted output so tests can assert on it.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative; counters only go up).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// GaugeFunc is a gauge whose value is computed at scrape time by a
// callback. It suits values some other subsystem already owns — the number
// of entries in the on-disk result store, say — where mirroring every
// mutation into a Gauge would be a second source of truth. The callback
// must be safe for concurrent use and cheap enough to run per scrape.
type GaugeFunc struct {
	fn func() int64
}

// Value invokes the callback.
func (g *GaugeFunc) Value() int64 { return g.fn() }

// Histogram counts observations into cumulative buckets, Prometheus-style.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf is implicit
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomicFloat
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// atomicFloat is a float64 with atomic add, stored as bits.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// CounterVec is a family of counters distinguished by label values, e.g.
// requests_total{route,code}.
type CounterVec struct {
	name string
	help string
	keys []string

	mu sync.Mutex
	m  map[string]*Counter
}

// With returns the counter for the given label values (one per label key,
// in key order), creating it on first use.
func (v *CounterVec) With(values ...string) *Counter {
	if len(values) != len(v.keys) {
		panic(fmt.Sprintf("obs: %s has %d label keys, got %d values", v.name, len(v.keys), len(values)))
	}
	key := strings.Join(values, "\x00")
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.m[key]
	if !ok {
		c = &Counter{}
		v.m[key] = c
	}
	return c
}

// Registry holds named metrics and renders them in the Prometheus text
// format. Metric names must be unique; registration panics on conflict
// (metrics are registered once at server construction, so a conflict is a
// programming error worth failing loudly on).
type Registry struct {
	mu      sync.Mutex
	order   []string
	metrics map[string]any // *Counter | *Gauge | *GaugeFunc | *Histogram | *CounterVec
	help    map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]any{}, help: map[string]string{}}
}

func (r *Registry) register(name, help string, m any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.metrics[name]; exists {
		panic(fmt.Sprintf("obs: duplicate metric %q", name))
	}
	r.order = append(r.order, name)
	r.metrics[name] = m
	r.help[name] = help
}

// Counter registers and returns a plain counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(name, help, c)
	return c
}

// Gauge registers and returns a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(name, help, g)
	return g
}

// GaugeFunc registers a callback-backed gauge rendered at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) *GaugeFunc {
	g := &GaugeFunc{fn: fn}
	r.register(name, help, g)
	return g
}

// Histogram registers and returns a histogram with the given ascending
// upper bounds (a final +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending", name))
		}
	}
	h := &Histogram{bounds: append([]float64(nil), bounds...), counts: make([]atomic.Uint64, len(bounds))}
	r.register(name, help, h)
	return h
}

// CounterVec registers and returns a labelled counter family.
func (r *Registry) CounterVec(name, help string, labelKeys ...string) *CounterVec {
	v := &CounterVec{name: name, help: help, keys: labelKeys, m: map[string]*Counter{}}
	r.register(name, help, v)
	return v
}

// DefLatencyBuckets are the default latency histogram bounds in seconds,
// spanning sub-millisecond handler work to multi-second pipeline runs.
func DefLatencyBuckets() []float64 {
	return []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format, in registration order, with label series sorted so the
// output is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	order := append([]string(nil), r.order...)
	r.mu.Unlock()
	for _, name := range order {
		r.mu.Lock()
		m := r.metrics[name]
		help := r.help[name]
		r.mu.Unlock()
		var err error
		switch m := m.(type) {
		case *Counter:
			_, err = fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, m.Value())
		case *Gauge:
			_, err = fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, m.Value())
		case *GaugeFunc:
			_, err = fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, m.Value())
		case *Histogram:
			err = writeHistogram(w, name, help, m)
		case *CounterVec:
			err = writeCounterVec(w, name, help, m)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func writeHistogram(w io.Writer, name, help string, h *Histogram) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name); err != nil {
		return err
	}
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatBound(b), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", name, h.Sum(), name, h.Count())
	return err
}

func writeCounterVec(w io.Writer, name, help string, v *CounterVec) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name); err != nil {
		return err
	}
	v.mu.Lock()
	series := make([]string, 0, len(v.m))
	for k := range v.m {
		series = append(series, k)
	}
	sort.Strings(series)
	counters := make([]*Counter, len(series))
	for i, k := range series {
		counters[i] = v.m[k]
	}
	v.mu.Unlock()
	for i, k := range series {
		values := strings.Split(k, "\x00")
		pairs := make([]string, len(v.keys))
		for j, key := range v.keys {
			pairs[j] = fmt.Sprintf("%s=%q", key, values[j])
		}
		if _, err := fmt.Fprintf(w, "%s{%s} %d\n", name, strings.Join(pairs, ","), counters[i].Value()); err != nil {
			return err
		}
	}
	return nil
}

// formatBound renders a bucket bound the way Prometheus clients do: shortest
// representation that round-trips.
func formatBound(b float64) string {
	return strings.TrimSuffix(fmt.Sprintf("%g", b), ".0")
}
