// Package matrix computes the cross-architecture composability matrix: the
// full analysis pipeline — noise filter, basis projection, specialized QRCP,
// metric definition — run per (platform, benchmark, metric signature) over
// every platform in a registry, reducing each triple to one cell: the
// metric's backward error (Eq. 5) on that architecture and the resulting
// composable/non-composable verdict.
//
// This is the paper's per-architecture result tables generalized into a
// data-driven grid: adding a platform definition file adds a column, with no
// code change. Like every analysis in this repository the matrix is
// deterministic — equal requests produce byte-identical reports across
// worker counts, front ends and replicas.
package matrix

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"github.com/perfmetrics/eventlens/internal/analysis"
	"github.com/perfmetrics/eventlens/internal/core"
	"github.com/perfmetrics/eventlens/internal/fault"
	"github.com/perfmetrics/eventlens/internal/machine"
	"github.com/perfmetrics/eventlens/internal/mat"
	"github.com/perfmetrics/eventlens/internal/par"
	"github.com/perfmetrics/eventlens/internal/suite"
)

// DefaultThreshold is the composability bound a request without a Threshold
// applies: core.ComposableThreshold, the bound single-platform analyses use.
const DefaultThreshold = core.ComposableThreshold

// ErrAllDegraded reports a fault-injected matrix that lost every
// (platform, benchmark) pair: there is no partial matrix to degrade to.
// Servers map it to 503.
var ErrAllDegraded = errors.New("matrix: every platform/benchmark pair degraded under fault injection")

// Request selects the matrix to compute. Its JSON form is the /v1/matrix
// payload.
//
// lint:cachekey — every result-affecting field must reach Key().
type Request struct {
	// Platforms optionally restricts the platform columns (short aliases
	// like "spr" are accepted); empty means every registered platform.
	Platforms []string `json:"platforms,omitempty"`
	// Benchmarks optionally restricts the benchmark rows; empty means the
	// full suite.
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Threshold overrides the composability bound on the backward error;
	// 0 means DefaultThreshold.
	Threshold float64 `json:"threshold,omitempty"`
	// Minimal opts into minimal spanning-kernel collection for every cell.
	Minimal bool `json:"minimal,omitempty"`
	// Workers bounds the pair-level worker pool (0 = GOMAXPROCS,
	// 1 = serial). Like everywhere else it cannot change results and is
	// excluded from Key.
	Workers int `json:"workers,omitempty"`
	// Faults optionally injects deterministic collection faults (a
	// fault.Spec string). Pairs whose collection faults out degrade into
	// the report's Degraded list instead of failing the matrix.
	Faults string `json:"faults,omitempty"`
}

// resolved is a validated request: lexicographically ordered canonical
// platform names, suite-ordered benchmarks, effective threshold.
type resolved struct {
	platforms []string
	benches   []suite.Benchmark
	threshold float64
	minimal   bool
	workers   int
	faults    string
}

// resolve validates a request against a registry and fills defaults.
// Platforms come back deduplicated in lexicographic order and benchmarks in
// suite-registry order, so equal requests in any spelling share one
// canonical identity.
func (r Request) resolve(reg *machine.Registry) (resolved, error) {
	if reg == nil {
		return resolved{}, errors.New("matrix: nil platform registry")
	}
	if r.Workers < 0 {
		return resolved{}, fmt.Errorf("matrix: workers must be >= 0 (0 means GOMAXPROCS), got %d", r.Workers)
	}
	if r.Faults != "" {
		if _, err := fault.ParseSpec(r.Faults); err != nil {
			return resolved{}, fmt.Errorf("matrix: bad faults spec: %v", err)
		}
	}
	threshold := r.Threshold
	if mat.IsZero(threshold) {
		threshold = DefaultThreshold
	}
	if threshold < 0 || math.IsNaN(threshold) || math.IsInf(threshold, 0) {
		return resolved{}, fmt.Errorf("matrix: threshold must be finite and > 0, got %g", r.Threshold)
	}
	var platforms []string
	if len(r.Platforms) == 0 {
		platforms = reg.Names()
	} else {
		for _, name := range r.Platforms {
			canon, err := reg.Canonical(name)
			if err != nil {
				return resolved{}, err
			}
			platforms = append(platforms, canon)
		}
	}
	sort.Strings(platforms)
	platforms = slices.Compact(platforms)
	requested := make(map[string]bool, len(r.Benchmarks))
	for _, name := range r.Benchmarks {
		b, err := suite.ByName(name)
		if err != nil {
			return resolved{}, err
		}
		requested[b.Name] = true
	}
	var benches []suite.Benchmark
	for _, b := range suite.All() {
		if len(requested) > 0 && !requested[b.Name] {
			continue
		}
		benches = append(benches, b)
	}
	// Every benchmark must have at least one platform of its class — a
	// cpu-only matrix requesting gpu-flops is a contradiction, not an
	// empty grid.
	for _, b := range benches {
		if len(requested) == 0 {
			break
		}
		any := false
		for _, name := range platforms {
			def, err := reg.Def(name)
			if err != nil {
				return resolved{}, err
			}
			if def.Class == b.Class {
				any = true
				break
			}
		}
		if !any {
			return resolved{}, fmt.Errorf("matrix: benchmark %s needs a %s-class platform; none requested", b.Name, b.Class)
		}
	}
	return resolved{
		platforms: platforms,
		benches:   benches,
		threshold: threshold,
		minimal:   r.Minimal,
		workers:   r.Workers,
		faults:    r.Faults,
	}, nil
}

// Key is the canonical cache/store/shard identity of a matrix: equal keys
// mean byte-identical reports. It names each platform by its Ref, the
// definition its column is computed from. Workers is excluded — it cannot
// change results — while Minimal, Faults and non-default thresholds are
// included, mirroring cat.RunConfig.String.
func (r Request) Key(reg *machine.Registry) (string, error) {
	res, err := r.resolve(reg)
	if err != nil {
		return "", err
	}
	refs := make([]string, len(res.platforms))
	for i, name := range res.platforms {
		if refs[i], err = reg.Ref(name); err != nil {
			return "", err
		}
	}
	names := make([]string, len(res.benches))
	for i, b := range res.benches {
		names[i] = b.Name
	}
	key := fmt.Sprintf("%s|%s|threshold=%g", strings.Join(refs, ","), strings.Join(names, ","), res.threshold)
	if res.minimal {
		key += "|minimal"
	}
	if res.faults != "" {
		spec, _ := fault.ParseSpec(res.faults) // resolve rejected specs that do not parse
		key += "|faults=" + spec.String()
	}
	return key, nil
}

// Cell is one (platform, benchmark, metric) entry of the matrix.
type Cell struct {
	Platform  string `json:"platform"`
	Benchmark string `json:"benchmark"`
	Metric    string `json:"metric"`
	// BackwardError is the metric definition's Eq. 5 fitness on this
	// platform.
	BackwardError float64 `json:"backward_error"`
	// Composable is the verdict: BackwardError <= the request threshold.
	Composable bool `json:"composable"`
	// Rank is the number of events the specialized QRCP selected for this
	// platform/benchmark (shared by the benchmark's cells).
	Rank int `json:"rank"`
}

// DegradedPair records a (platform, benchmark) pair whose collection
// faulted out under injection; the matrix proceeded without it.
type DegradedPair struct {
	Platform  string `json:"platform"`
	Benchmark string `json:"benchmark"`
	Error     string `json:"error"`
}

// Report is the full composability matrix.
type Report struct {
	// Platforms are the matrix columns in lexicographic order.
	Platforms []string `json:"platforms"`
	// Benchmarks are the row groups in suite order.
	Benchmarks []string `json:"benchmarks"`
	Threshold  float64  `json:"threshold"`
	Minimal    bool     `json:"minimal,omitempty"`
	// Cells hold every computed entry, ordered by (platform, benchmark,
	// metric) with platforms lexicographic, benchmarks in suite order and
	// metrics in signature-table order.
	Cells []Cell `json:"cells"`
	// Composable counts the cells whose verdict is composable.
	Composable int `json:"composable"`
	// Total counts all computed cells.
	Total int `json:"total"`
	// Degraded lists pairs lost wholesale to fault injection.
	Degraded []DegradedPair `json:"degraded,omitempty"`
}

// pairResult is one (platform, benchmark) pipeline outcome.
type pairResult struct {
	cells    []Cell
	degraded *DegradedPair
}

// Run computes the matrix: for every class-matching (platform, benchmark)
// pair it builds the platform from its definition, collects the benchmark
// on it, runs the analysis pipeline and defines every signature metric.
// Pairs run concurrently under req.Workers; the report is assembled in
// canonical order regardless, so worker counts never change a byte.
func Run(ctx context.Context, reg *machine.Registry, req Request) (*Report, error) {
	res, err := req.resolve(reg)
	if err != nil {
		return nil, err
	}
	type pair struct {
		platform string
		bench    suite.Benchmark
	}
	var pairs []pair
	for _, name := range res.platforms {
		def, err := reg.Def(name)
		if err != nil {
			return nil, err
		}
		for _, b := range res.benches {
			if def.Class == b.Class {
				pairs = append(pairs, pair{platform: name, bench: b})
			}
		}
	}
	if len(pairs) == 0 {
		return nil, errors.New("matrix: no platform/benchmark pair matches by class")
	}
	results := make([]pairResult, len(pairs))
	err = par.ForErr(res.workers, len(pairs), func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		pr := pairs[i]
		cells, err := runPair(ctx, reg, pr.platform, pr.bench, res)
		if err != nil {
			// Under fault injection a pair whose collection cannot
			// complete degrades into the report instead of failing the
			// whole matrix. Without injection there is nothing to degrade
			// gracefully from.
			if res.faults != "" && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
				results[i] = pairResult{degraded: &DegradedPair{
					Platform: pr.platform, Benchmark: pr.bench.Name, Error: err.Error(),
				}}
				return nil
			}
			return fmt.Errorf("matrix: %s on %s: %w", pr.bench.Name, pr.platform, err)
		}
		results[i] = pairResult{cells: cells}
		return nil
	})
	if err != nil {
		return nil, err
	}
	report := &Report{
		Platforms:  res.platforms,
		Threshold:  res.threshold,
		Minimal:    res.minimal,
		Benchmarks: make([]string, 0, len(res.benches)),
	}
	for _, b := range res.benches {
		report.Benchmarks = append(report.Benchmarks, b.Name)
	}
	// Canonical cell order: platform-major (the pairs slice is built
	// platform-major over sorted platforms), benchmark in suite order,
	// metric in signature order within each pair.
	for _, r := range results {
		if r.degraded != nil {
			report.Degraded = append(report.Degraded, *r.degraded)
			continue
		}
		for _, c := range r.cells {
			if c.Composable {
				report.Composable++
			}
		}
		report.Cells = append(report.Cells, r.cells...)
	}
	report.Total = len(report.Cells)
	if report.Total == 0 {
		return nil, fmt.Errorf("%w (%d lost)", ErrAllDegraded, len(report.Degraded))
	}
	return report, nil
}

// runPair runs the analysis of one (platform, benchmark) pair — the
// benchmark's default run and analysis configuration on that platform — and
// returns its metric cells in signature order.
func runPair(ctx context.Context, reg *machine.Registry, platform string, b suite.Benchmark, res resolved) ([]Cell, error) {
	run := b.DefaultRun
	// Pair-level parallelism already saturates the pool; each collection
	// runs serially inside its worker.
	run.Workers = 1
	run.Faults = res.faults
	run.MinimalKernels = res.minimal
	a, err := analysis.Run(ctx, reg, analysis.Request{Benchmark: b.Name, Platform: platform, Run: &run}, 0)
	if err != nil {
		return nil, err
	}
	cells := make([]Cell, 0, len(a.Defs))
	for _, def := range a.Defs {
		cells = append(cells, Cell{
			Platform:      platform,
			Benchmark:     b.Name,
			Metric:        def.Metric,
			BackwardError: def.BackwardError,
			Composable:    def.Composable(res.threshold),
			Rank:          len(a.Result.SelectedEvents),
		})
	}
	return cells, nil
}

// Format renders the matrix as the human-readable grid the figures CLI
// prints — and that the daemon embeds in its JSON envelope, so both front
// ends emit byte-identical text. Rows are metrics grouped by benchmark;
// columns are the platforms of the benchmark's class.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cross-architecture composability matrix (threshold %g)\n", r.Threshold)
	fmt.Fprintf(&b, "platforms: %s\n", strings.Join(r.Platforms, ", "))
	fmt.Fprintf(&b, "verdicts: %d/%d composable\n", r.Composable, r.Total)
	// Index cells by (benchmark, metric, platform).
	type rowKey struct{ bench, metric string }
	cellAt := make(map[rowKey]map[string]Cell)
	var metricOrder []rowKey
	for _, c := range r.Cells {
		k := rowKey{c.Benchmark, c.Metric}
		if cellAt[k] == nil {
			cellAt[k] = make(map[string]Cell)
			metricOrder = append(metricOrder, k)
		}
		cellAt[k][c.Platform] = c
	}
	// metricOrder follows cell order, which is platform-major; rebuild it
	// benchmark-major preserving first-seen metric order within each.
	for _, bench := range r.Benchmarks {
		var rows []rowKey
		seen := make(map[rowKey]bool)
		for _, k := range metricOrder {
			if k.bench == bench && !seen[k] {
				seen[k] = true
				rows = append(rows, k)
			}
		}
		if len(rows) == 0 {
			continue
		}
		// Platform columns: the platforms with a cell in this benchmark,
		// in report (lexicographic) order.
		var cols []string
		for _, p := range r.Platforms {
			if _, ok := cellAt[rows[0]][p]; ok {
				cols = append(cols, p)
			}
		}
		metricWidth := len("metric")
		for _, k := range rows {
			if len(k.metric) > metricWidth {
				metricWidth = len(k.metric)
			}
		}
		colWidth := 14
		for _, p := range cols {
			if len(p) > colWidth {
				colWidth = len(p)
			}
		}
		fmt.Fprintf(&b, "\nbenchmark %s:\n", bench)
		fmt.Fprintf(&b, "  %-*s", metricWidth, "metric")
		for _, p := range cols {
			fmt.Fprintf(&b, "  %-*s", colWidth, p)
		}
		b.WriteString("\n")
		for _, k := range rows {
			fmt.Fprintf(&b, "  %-*s", metricWidth, k.metric)
			for _, p := range cols {
				c := cellAt[k][p]
				mark := "no"
				if c.Composable {
					mark = "OK"
				}
				fmt.Fprintf(&b, "  %-*s", colWidth, fmt.Sprintf("%s %.2e", mark, c.BackwardError))
			}
			b.WriteString("\n")
		}
	}
	if len(r.Degraded) > 0 {
		b.WriteString("\ndegraded pairs (fault injection):\n")
		for _, d := range r.Degraded {
			fmt.Fprintf(&b, "  %s on %s: %s\n", d.Benchmark, d.Platform, d.Error)
		}
	}
	return b.String()
}

// Envelope is the canonical JSON shape of a matrix: the report fields plus
// the rendered text, so API consumers get both without a second request.
// Encode of the envelope is what the daemon stores and serves, and
// what the figures CLI prints in JSON mode — byte-identical by
// construction.
type Envelope struct {
	*Report
	// Text is the Format() rendering.
	Text string `json:"matrix"`
}

// NewEnvelope wraps a report with its rendered text.
func NewEnvelope(r *Report) Envelope { return Envelope{Report: r, Text: r.Format()} }

// Encode renders the envelope exactly as the daemon serves it: two-space
// indent, trailing newline. It fails when the report holds a value JSON
// cannot carry — NaN or ±Inf, which corrupt-fault injection writes into
// measured values — rather than return an empty body.
func (e Envelope) Encode() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(e); err != nil {
		return nil, fmt.Errorf("matrix: encode report: %w", err)
	}
	return buf.Bytes(), nil
}

// CanonicalJSON is Encode without the error: nil when Encode fails. It
// exists only for cmd/loadgen until the next benchmark change; everything
// else calls Encode.
func (e Envelope) CanonicalJSON() []byte {
	body, _ := e.Encode()
	return body
}
