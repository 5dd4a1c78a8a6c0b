// Command loadgen is the repository's end-to-end benchmark. It serves the
// eventlensd handlers of internal/server over loopback HTTP, drives them
// with seeded closed-loop request mixes from two clients, checks every
// response, and reports latency, throughput, CPU, memory and set-up time
// per workload. A traced run attributes time to the modules instead. See
// README.md for the workloads, the metrics and how to read a trace.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash cmd/loadgen/run.sh                               every workload, each in a fresh child process
//	bash cmd/loadgen/run.sh --workload serve-hot --seed 3 one workload in this process
//	bash cmd/loadgen/run.sh --workload tier-sweep --trace 1 -spans t.json
//	bash cmd/loadgen/run.sh -runs 10 -json > baseline.json
//	bash cmd/loadgen/run.sh -runs 5 -baseline cmd/loadgen/baseline.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/perfmetrics/eventlens/internal/cli"
)

func main() {
	// An interrupt cancels the run, which kills and waits for any child
	// process before exiting.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := cli.ExitCode("loadgen", run(ctx, os.Args[1:], os.Stdout, os.Stderr), os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run in this process (empty = every workload, each in a child process)")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed generates the same requests")
	seconds := fs.Float64("seconds", 15, "length of each timed window in seconds")
	traceFlag := fs.Int("trace", 0, "1 makes a traced run, which reports the per-layer metrics instead of the end-to-end ones")
	spans := fs.String("spans", "", "with -workload and -trace 1: write the run's spans to this JSON file")
	runs := fs.Int("runs", 1, "runs per workload, at seeds seed, seed+1, ...; several print medians and quartiles")
	baseline := fs.String("baseline", "", "compare the runs' medians with this baseline file; exit 1 on a regression")
	jsonOut := fs.Bool("json", false, "print the runs' summary as JSON, in the baseline file's format")
	setupOnly := fs.Bool("setup-only", false, "with -workload: set the workload up, print \"ready\" and exit (untraced runs time setup_s this way)")
	if err := cli.ParseFlags(fs, args); err != nil {
		return err
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return cli.Usagef("-trace must be 0 or 1, got %d", *traceFlag)
	}
	if *seconds <= 0 {
		return cli.Usagef("-seconds must be > 0, got %g", *seconds)
	}
	if *runs < 1 {
		return cli.Usagef("-runs must be >= 1, got %d", *runs)
	}
	if *spans != "" && (*name == "" || *traceFlag == 0) {
		return cli.Usagef("-spans needs -workload and -trace 1")
	}
	if *setupOnly && *name == "" {
		return cli.Usagef("-setup-only needs -workload")
	}
	opt := options{seed: *seed, window: time.Duration(*seconds * float64(time.Second)), trace: *traceFlag == 1,
		spans: *spans, setups: setupRuns}
	selected := workloads()
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			return &cli.UsageError{Err: err}
		}
		if *setupOnly {
			return setUpOnce(ctx, w, stdout)
		}
		if *runs == 1 && *baseline == "" && !*jsonOut {
			return runInProcess(ctx, w, opt, stdout, stderr)
		}
		selected = []*workload{w}
	}
	return orchestrate(ctx, selected, opt, *runs, *baseline, *jsonOut, stdout, stderr)
}

// result is the JSON line that ends every single-workload run.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
	// values are every metric a child run printed, at the result line's
	// precision where it holds the metric.
	values map[string]value
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runInProcess runs one workload here and prints one line per metric,
// `<workload> <metric> <value> <unit> n=<samples>`, then the result line,
// which holds the gated metrics. It fails without a result line when the
// run cannot complete, and after it when any request failed or mismatched.
func runInProcess(ctx context.Context, w *workload, opt options, stdout, stderr io.Writer) error {
	var out *outcome
	var err error
	if opt.trace {
		out, err = runTraced(ctx, w, opt, stderr)
	} else {
		out, err = measure(ctx, w, opt)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	lines, gated := reported(opt.trace)
	for _, d := range lines {
		v := out.values[d.name]
		fmt.Fprintf(stdout, "%s %s %s %s n=%d\n", w.name, d.name, formatValue(v.v), d.unit, v.n)
	}
	res := result{Correct: out.failed == 0 && out.attempted > 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]metricJSON{}}
	for _, d := range gated {
		res.Metrics[d.name] = metricJSON{Value: out.values[d.name].v, Unit: d.unit}
	}
	for _, e := range out.errs {
		fmt.Fprintf(stderr, "loadgen: %s: %s\n", w.name, e)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d requests failed or mismatched", w.name, out.failed, out.attempted)
	}
	return nil
}

// runTraced makes a traced run here, after an untraced run in a child
// process for the overhead comparison. Both start in a fresh process, so
// process-wide caches (cachesim's chase plans) carry over to neither.
func runTraced(ctx context.Context, w *workload, opt options, stderr io.Writer) (*outcome, error) {
	untraced := opt
	untraced.trace = false
	base, err := childRun(ctx, w, opt.seed, untraced, io.Discard, stderr)
	if err != nil {
		return nil, err
	}
	return measureTraced(ctx, w, opt, base.values)
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// childRun runs one workload in a fresh child process of this binary, so
// caches, GC state and peak RSS do not carry over between runs. It relays
// the child's metric lines to lines and returns its result line, with the
// values of every metric line.
func childRun(ctx context.Context, w *workload, seed uint64, opt options, lines, stderr io.Writer) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	trace := "0"
	if opt.trace {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "--workload", w.name, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(opt.window.Seconds(), 'g', -1, 64), "--trace", trace)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, stderr
	runErr := cmd.Run()
	text := strings.TrimRight(stdout.String(), "\n")
	cut := strings.LastIndexByte(text, '\n')
	var res result
	if err := json.Unmarshal([]byte(text[cut+1:]), &res); err != nil {
		return result{}, fmt.Errorf("%s seed %d: no result line (%v)", w.name, seed, errors.Join(runErr, err))
	}
	if cut > 0 {
		fmt.Fprintf(lines, "%s\n", text[:cut])
	}
	if res.values, err = metricLines(w.name, text[:max(cut, 0)], res.Metrics); err != nil {
		return result{}, fmt.Errorf("%s seed %d: %w", w.name, seed, err)
	}
	if runErr != nil || !res.Correct {
		return res, fmt.Errorf("%s seed %d: %d of %d requests failed or mismatched (%v)", w.name, seed, res.Failed, res.Attempted, runErr)
	}
	return res, nil
}

// metricLines reads a run's `<workload> <metric> <value> <unit> n=<samples>`
// lines, skipping any other line. A metric the result line also holds takes
// its value from there, which keeps every digit.
func metricLines(workload, text string, gated map[string]metricJSON) (map[string]value, error) {
	out := map[string]value{}
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) != 5 || f[0] != workload || !strings.HasPrefix(f[4], "n=") {
			continue
		}
		v, errV := strconv.ParseFloat(f[2], 64)
		n, errN := strconv.Atoi(strings.TrimPrefix(f[4], "n="))
		if errV != nil || errN != nil {
			return nil, fmt.Errorf("malformed metric line %q", line)
		}
		if m, ok := gated[f[1]]; ok {
			v = m.Value
		}
		out[f[1]] = value{v, n}
	}
	return out, nil
}

// orchestrate runs each selected workload runs times, each in a child
// process at seeds seed, seed+1, .... A single run relays the children's
// metric lines; several print each metric's median and quartiles. With a
// baseline, the medians are judged against it.
func orchestrate(ctx context.Context, selected []*workload, opt options, runs int, baselinePath string, jsonOut bool, stdout, stderr io.Writer) error {
	var base *summary
	if baselinePath != "" {
		raw, err := os.ReadFile(baselinePath)
		if err != nil {
			return err
		}
		base = &summary{}
		if err := json.Unmarshal(raw, base); err != nil {
			return fmt.Errorf("%s: %w", baselinePath, err)
		}
	}
	defs, _ := reported(opt.trace)
	sum := newSummary(opt, runs)
	relay := stdout
	if runs > 1 || jsonOut || base != nil {
		relay = io.Discard
	}
	var failures []error
	for _, w := range selected {
		for r := 0; r < runs; r++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			res, err := childRun(ctx, w, opt.seed+uint64(r), opt, relay, stderr)
			if err != nil {
				failures = append(failures, err)
				continue
			}
			sum.add(w.name, defs, res)
		}
	}
	if runs > 1 && !jsonOut {
		sum.print(stdout, selected, defs)
	}
	if jsonOut {
		raw, err := json.MarshalIndent(sum, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", raw)
	}
	if base != nil {
		if worse := compare(stdout, base, sum, selected); worse > 0 {
			failures = append(failures, fmt.Errorf("%d metric(s) worse than the baseline", worse))
		}
	}
	return errors.Join(failures...)
}

// stamp identifies where and how a summary was measured; baselines only
// compare like with like.
type stamp struct {
	CPU    string `json:"cpu"`
	NProc  int    `json:"nproc"`
	Go     string `json:"go"`
	Window string `json:"window"`
	Trace  bool   `json:"trace"`
	Seeds  []int  `json:"seeds"`
}

// stats are one metric's values over a summary's runs.
type stats struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// spread is the interquartile distance as a share of the median.
func (s stats) spread() float64 { return ratio(s.Q3-s.Q1, s.Median) }

// summary is the baseline file's format: per workload, per metric stats.
type summary struct {
	Stamp     stamp                       `json:"stamp"`
	Workloads map[string]map[string]stats `json:"workloads"`
}

func newSummary(opt options, runs int) *summary {
	s := &summary{
		Stamp: stamp{CPU: cpuModel(), NProc: runtime.NumCPU(), Go: runtime.Version(),
			Window: opt.window.String(), Trace: opt.trace},
		Workloads: map[string]map[string]stats{},
	}
	for r := 0; r < runs; r++ {
		s.Stamp.Seeds = append(s.Stamp.Seeds, int(opt.seed)+r)
	}
	return s
}

func (s *summary) add(workload string, defs []metricDef, res result) {
	if s.Workloads[workload] == nil {
		s.Workloads[workload] = map[string]stats{}
	}
	for _, d := range defs {
		st := s.Workloads[workload][d.name]
		st.Unit = d.unit
		st.Values = append(st.Values, res.values[d.name].v)
		st.Q1, st.Median, st.Q3 = quartiles(st.Values)
		s.Workloads[workload][d.name] = st
	}
}

// print writes `<workload> <metric> <median> <unit> q1=… q3=… spread=…`
// lines, flagging end-to-end metrics whose spread exceeds their bound.
func (s *summary) print(w io.Writer, selected []*workload, defs []metricDef) {
	for _, wl := range selected {
		for _, d := range defs {
			st, ok := s.Workloads[wl.name][d.name]
			if !ok {
				continue
			}
			flag := ""
			if d.bound > 0 && st.spread() > d.bound {
				flag = fmt.Sprintf("  SPREAD ABOVE BOUND %.0f%%", 100*d.bound)
			}
			fmt.Fprintf(w, "%s %s %s %s q1=%s q3=%s spread=%.1f%% runs=%d%s\n", wl.name, d.name,
				formatValue(st.Median), d.unit, formatValue(st.Q1), formatValue(st.Q3), 100*st.spread(), len(st.Values), flag)
		}
	}
}

// verdict judges one metric's runs against the baseline's: a
// median that moved the wrong way by more than the bound is worse, the
// right way better, else the same. When either side's spread exceeds the
// bound the metric is unresolved, unless every run beats every baseline run.
// A metric without a bound is never worse or the same: it is better when
// every run beats every baseline run, and unresolved otherwise.
func verdict(d metricDef, base, now stats) string {
	worse := ratio(now.Median-base.Median, base.Median)
	if d.better == "higher" {
		worse = -worse
	}
	if d.bound <= 0 || max(base.spread(), now.spread()) > d.bound {
		if allBetter(d, base.Values, now.Values) {
			return "better"
		}
		return "unresolved"
	}
	switch {
	case worse > d.bound:
		return "worse"
	case worse < -d.bound:
		return "better"
	}
	return "same"
}

// allBetter reports whether every value of now beats every value of base.
func allBetter(d metricDef, base, now []float64) bool {
	if len(base) == 0 || len(now) == 0 {
		return false
	}
	for _, b := range base {
		for _, n := range now {
			if (d.better == "higher" && n <= b) || (d.better == "lower" && n >= b) {
				return false
			}
		}
	}
	return true
}

// compare prints a verdict per (workload, untraced metric) and returns how
// many are worse. A demoted metric has no bound, so it is better when every
// run beats every baseline run and unresolved otherwise. A baseline from
// another machine or run length leaves every verdict unresolved.
func compare(w io.Writer, base, now *summary, selected []*workload) int {
	like := base.Stamp.CPU == now.Stamp.CPU && base.Stamp.NProc == now.Stamp.NProc &&
		base.Stamp.Window == now.Stamp.Window && base.Stamp.Trace == now.Stamp.Trace
	if !like {
		fmt.Fprintf(w, "baseline measured on %q x%d over %s windows; this run on %q x%d over %s: verdicts unresolved\n",
			base.Stamp.CPU, base.Stamp.NProc, base.Stamp.Window, now.Stamp.CPU, now.Stamp.NProc, now.Stamp.Window)
	}
	worse := 0
	for _, wl := range selected {
		for _, d := range untracedMetrics {
			b, okB := base.Workloads[wl.name][d.name]
			n, okN := now.Workloads[wl.name][d.name]
			if !okB || !okN {
				continue
			}
			v := "unresolved"
			if like {
				v = verdict(d, b, n)
			}
			if v == "worse" {
				worse++
			}
			bound := "none"
			if d.bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*d.bound)
			}
			fmt.Fprintf(w, "%s %s base=%s now=%s change=%+.1f%% bound=%s %s\n", wl.name, d.name,
				formatValue(b.Median), formatValue(n.Median), 100*ratio(n.Median-b.Median, b.Median), bound, v)
		}
	}
	return worse
}

// cpuModel is the first "model name" in /proc/cpuinfo, or GOARCH.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}
