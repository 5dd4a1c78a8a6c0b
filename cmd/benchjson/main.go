// Command benchjson converts `go test -bench` text output into a stable JSON
// document, so CI can record the performance trajectory (BENCH_<n>.json per
// PR) without depending on external benchmark-parsing tooling.
//
// Usage:
//
//	go test -run '^$' -bench . -benchtime=1x . | go run ./cmd/benchjson -out BENCH_4.json
//
// Lines that are not benchmark results (goos/goarch/cpu headers, PASS/ok
// trailers) feed the environment header or are ignored; malformed benchmark
// lines are an error so a silently truncated run cannot masquerade as data.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"github.com/perfmetrics/eventlens/internal/cli"
)

// Result is one parsed benchmark line.
type Result struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix preserved,
	// e.g. "BenchmarkCollectDCache-8".
	Name string `json:"name"`
	// Iterations is b.N for the recorded run.
	Iterations int64 `json:"iterations"`
	// NsPerOp is wall-clock nanoseconds per iteration.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are present when the benchmark called
	// ReportAllocs (negative means unreported).
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
}

// Document is the emitted JSON shape.
type Document struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	Pkg        string   `json:"pkg,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	cli.Main("benchjson", func(args []string, stdout, stderr io.Writer) error {
		return run(args, os.Stdin, stdout, stderr)
	})
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", "", "output file (default stdout)")
	guard := fs.String("guard", "", "baseline BENCH_<n>.json: compare instead of emitting, fail on regression")
	guardName := fs.String("guard-name", "BenchmarkCollectDCache", "benchmark to guard (GOMAXPROCS suffix ignored)")
	guardFactor := fs.Float64("guard-factor", 2, "fail when ns/op exceeds baseline by more than this factor")
	if err := cli.ParseFlags(fs, args); err != nil {
		return err
	}

	doc, err := parse(stdin)
	if err != nil {
		return err
	}
	if len(doc.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines found in input")
	}
	if *guard != "" {
		return runGuard(doc, *guard, *guardName, *guardFactor, stdout)
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "" {
		_, err := stdout.Write(data)
		return err
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d benchmarks to %s\n", len(doc.Benchmarks), *out)
	return nil
}

// baseName strips the -GOMAXPROCS suffix go test appends, so baselines and
// runs recorded on machines with different core counts still compare.
func baseName(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// findResult locates a benchmark by suffix-normalized name.
func findResult(doc *Document, name string) (Result, bool) {
	for _, r := range doc.Benchmarks {
		if baseName(r.Name) == name {
			return r, true
		}
	}
	return Result{}, false
}

// bytesFactor bounds a guarded row's B/op against the baseline, and
// allocsFactor its allocs/op. Allocation counts repeat within 0.6% over 30
// runs of the guard, where wall time moves 5–15%, so allocsFactor is
// tight where factor is not: a change that saves more than 3% of a row's
// allocations can be held. A row of a few allocations reads one more on
// some runs (EncodeValidateMI250X: 14 or 15), so allocs/op may always
// exceed its baseline by one. B/op keeps 10%.
const (
	bytesFactor  = 1.1
	allocsFactor = 1.03
)

// runGuard compares the parsed run against a committed baseline document and
// fails when any row of the guarded benchmark (one per -cpu value) regressed:
// ns/op past factor, B/op past bytesFactor or allocs/op past allocsFactor.
// A missing benchmark on either side is an error, and so is a run that does
// not report the allocations its baseline records — a guard that cannot
// find its subject must not pass silently.
func runGuard(doc *Document, baselinePath, name string, factor float64, stdout io.Writer) error {
	if factor <= 0 {
		return fmt.Errorf("guard-factor must be > 0, got %v", factor)
	}
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("guard baseline: %w", err)
	}
	var baseline Document
	if err := json.Unmarshal(data, &baseline); err != nil {
		return fmt.Errorf("guard baseline %s: %w", baselinePath, err)
	}
	base, ok := findResult(&baseline, name)
	if !ok {
		return fmt.Errorf("guard: baseline %s has no benchmark %q", baselinePath, name)
	}
	found := false
	for _, cur := range doc.Benchmarks {
		if baseName(cur.Name) != name {
			continue
		}
		found = true
		if cur.NsPerOp > base.NsPerOp*factor {
			return fmt.Errorf("guard: %s regressed to %.0f ns/op, more than %gx the %s baseline of %.0f ns/op",
				cur.Name, cur.NsPerOp, factor, baselinePath, base.NsPerOp)
		}
		for _, m := range []struct {
			unit          string
			cur, base     int64
			factor, limit float64
		}{
			{"B/op", cur.BytesPerOp, base.BytesPerOp, bytesFactor, float64(base.BytesPerOp) * bytesFactor},
			{"allocs/op", cur.AllocsPerOp, base.AllocsPerOp, allocsFactor, max(float64(base.AllocsPerOp)*allocsFactor, float64(base.AllocsPerOp+1))},
		} {
			switch {
			case m.base < 0:
			case m.cur < 0:
				return fmt.Errorf("guard: %s reports no %s; the %s baseline records %d", cur.Name, m.unit, baselinePath, m.base)
			case float64(m.cur) > m.limit:
				return fmt.Errorf("guard: %s regressed to %d %s, more than %gx the %s baseline of %d %s",
					cur.Name, m.cur, m.unit, m.factor, baselinePath, m.base, m.unit)
			}
		}
		fmt.Fprintf(stdout, "guard: %s at %.0f ns/op within %gx of baseline %.0f ns/op", cur.Name, cur.NsPerOp, factor, base.NsPerOp)
		if base.BytesPerOp >= 0 || base.AllocsPerOp >= 0 {
			fmt.Fprintf(stdout, "; %d B/op within %gx of %d, %d allocs/op within %gx of %d",
				cur.BytesPerOp, bytesFactor, base.BytesPerOp, cur.AllocsPerOp, allocsFactor, base.AllocsPerOp)
		}
		fmt.Fprintln(stdout)
	}
	if !found {
		return fmt.Errorf("guard: current run has no benchmark %q", name)
	}
	return nil
}

// parse scans go-test benchmark output, collecting header fields and results.
func parse(r io.Reader) (*Document, error) {
	doc := &Document{Benchmarks: []Result{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			doc.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			res, err := parseLine(line)
			if err != nil {
				return nil, err
			}
			doc.Benchmarks = append(doc.Benchmarks, res)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return doc, nil
}

// parseLine parses one benchmark result line:
//
//	BenchmarkName-8   10   110 ns/op   64 B/op   2 allocs/op
func parseLine(line string) (Result, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 || fields[3] != "ns/op" {
		return Result{}, fmt.Errorf("malformed benchmark line: %q", line)
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, fmt.Errorf("iterations in %q: %w", line, err)
	}
	ns, err := strconv.ParseFloat(fields[2], 64)
	if err != nil {
		return Result{}, fmt.Errorf("ns/op in %q: %w", line, err)
	}
	res := Result{Name: fields[0], Iterations: iters, NsPerOp: ns, BytesPerOp: -1, AllocsPerOp: -1}
	for i := 4; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseInt(fields[i], 10, 64)
		if err != nil {
			continue // custom float metrics (b.ReportMetric) pass through unrecorded
		}
		switch fields[i+1] {
		case "B/op":
			res.BytesPerOp = v
		case "allocs/op":
			res.AllocsPerOp = v
		}
	}
	return res, nil
}
