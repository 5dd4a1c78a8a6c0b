package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted
// values: the smallest value with at least a share p of the values at or
// below it. Empty input yields 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(p*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(sorted) {
		k = len(sorted) - 1
	}
	return sorted[k]
}

// quartiles returns the first quartile, median and third quartile of xs by
// the "exclusive" method of Python's statistics.quantiles(xs, n=4), the
// method the benchmark's spread rule is stated in.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	m := len(d) + 1
	q := [3]float64{}
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// median is the middle value of xs, or the mean of the middle two.
func median(xs []float64) float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// ratio is a/b, or 0 when b is not positive.
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// promText holds the samples of a Prometheus text exposition by series,
// e.g. `eventlensd_shard_requests_total{outcome="local"}`.
type promText map[string]float64

// parseProm parses the Prometheus text format: comment lines start with #,
// every other non-blank line is a series and its value.
func parseProm(text string) (promText, error) {
	out := promText{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for line := 1; sc.Scan(); line++ {
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		cut := strings.LastIndexByte(s, ' ')
		if cut <= 0 {
			return nil, fmt.Errorf("line %d: no value in %q", line, s)
		}
		v, err := strconv.ParseFloat(s[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		out[strings.TrimSpace(s[:cut])] = v
	}
	return out, sc.Err()
}

// add sums q's samples into p.
func (p promText) add(q promText) {
	for k, v := range q {
		p[k] += v
	}
}

// family sums every series of a metric family, whatever its labels.
func (p promText) family(name string) float64 {
	total := 0.0
	for series, v := range p {
		if series == name || strings.HasPrefix(series, name+"{") {
			total += v
		}
	}
	return total
}

// delta is a family's growth from before to after.
func delta(before, after promText, name string) float64 {
	return after.family(name) - before.family(name)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeStats are cumulative Go runtime counters.
type runtimeStats struct {
	allocs, gcs, liveHeap uint64
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/live:bytes"},
	}
	metrics.Read(s)
	v := make([]uint64, len(s))
	for i := range s {
		if s[i].Value.Kind() == metrics.KindUint64 {
			v[i] = s[i].Value.Uint64()
		}
	}
	return runtimeStats{allocs: v[0], gcs: v[1], liveHeap: v[2]}
}

// peakRSSMiB reads the process's peak resident set (VmHWM) from
// /proc/self/status; 0 where that file does not exist.
func peakRSSMiB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
