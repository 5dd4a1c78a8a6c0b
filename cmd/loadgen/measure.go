package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"time"
)

// options are one run's settings.
type options struct {
	seed   uint64
	window time.Duration
	trace  bool
	spans  string // traced runs: where to write the spans, if anywhere
	// setups is how many cold set-ups an untraced run times for setup_s.
	setups int
}

// setupRuns is how many cold set-ups an untraced run times; setup_s is
// their median.
const setupRuns = 5

// outcome is what one run measured.
type outcome struct {
	attempted int
	failed    int
	values    map[string]value
	errs      []string
}

// setUp starts a workload's tier, makes a client's discovery calls and
// serves the warm-up requests, returning the tier and the warm-up requests
// sent.
func setUp(ctx context.Context, w *workload) (*tier, []request, error) {
	t, err := startTier(w)
	if err != nil {
		return nil, nil, err
	}
	if err := t.discover(ctx); err != nil {
		t.close()
		return nil, nil, err
	}
	warm, err := t.warmUp(ctx, w)
	if err != nil {
		t.close()
		return nil, nil, err
	}
	return t, warm, nil
}

// readyLine is what a -setup-only child prints once its set-up is done.
const readyLine = "ready"

// setUpOnce is the -setup-only mode: set w up, print the ready line, tear
// the tier down and exit.
func setUpOnce(ctx context.Context, w *workload, stdout io.Writer) error {
	t, _, err := setUp(ctx, w)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, readyLine)
	t.close()
	return nil
}

// coldSetups times n set-ups of w, each in a fresh child process, from
// starting the process to its ready line. Every set-up therefore builds the
// process-wide lazy state (the platform registry, chase plans, validation
// references) anew, as a starting daemon does. The children run one at a
// time, and each has exited before the next starts.
func coldSetups(ctx context.Context, w *workload, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var times []float64
	for j := 0; j < n; j++ {
		cmd := exec.CommandContext(ctx, exe, "--workload", w.name, "-setup-only")
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		br := bufio.NewReader(out)
		line, readErr := br.ReadString('\n')
		elapsed := time.Since(start)
		_, copyErr := io.Copy(io.Discard, br)
		waitErr := cmd.Wait()
		if line != readyLine+"\n" || readErr != nil || copyErr != nil || waitErr != nil {
			return nil, fmt.Errorf("cold set-up %d: child printed %q: %w", j+1, line, errors.Join(readErr, copyErr, waitErr))
		}
		times = append(times, elapsed.Seconds())
	}
	return times, nil
}

// measure is an untraced run: time opt.setups cold set-ups (setup_s is
// their median), set up here and read the live heap, time one window, then
// audit a sample of its responses.
func measure(ctx context.Context, w *workload, opt options) (*outcome, error) {
	setups, err := coldSetups(ctx, w, opt.setups)
	if err != nil {
		return nil, err
	}
	t, _, err := setUp(ctx, w)
	if err != nil {
		return nil, err
	}
	defer t.close()
	// The heap is read before request 0, a point every run reaches in the
	// same state whatever the seed and however fast the machine is (a
	// sharded tier's warm-up varies a little with the replicas' ports). The
	// first collection moves sync.Pool contents to their victim caches and
	// the second frees them, so the heap holds only what the daemon keeps.
	runtime.GC()
	runtime.GC()
	heap := float64(readRuntime().liveHeap) / (1 << 20)
	p, err := drive(ctx, t, w, opt.seed, opt.window, false)
	if err != nil {
		return nil, err
	}
	out := &outcome{attempted: len(p.records), failed: p.failures, errs: p.errs, values: endToEndValues(p, setups)}
	out.values["heap_live_mb"] = value{heap, 1}
	mismatches, err := audit(ctx, w, sampleForAudit(p.keys, opt.seed))
	if err != nil {
		return nil, err
	}
	out.failed += len(mismatches)
	out.errs = append(out.errs, mismatches...)
	return out, nil
}

// measureTraced is a traced run. It times the workload's requests, keeping
// their bodies, and records a root span per request; against the
// throughput in untraced, the values of an untraced run started the same
// way, that gives the tracing overhead. It audits the phase, then replays
// its requests one at a time through the modules' public functions (for at
// most one window), attributing time to layers. The demoted metrics are the
// untraced run's.
func measureTraced(ctx context.Context, w *workload, opt options, untraced map[string]value) (*outcome, error) {
	tr := newTracer()
	t, warm, err := setUp(ctx, w)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	p, err := drive(ctx, t, w, opt.seed, opt.window, true)
	t.close()
	if err != nil {
		return nil, err
	}
	tr.addPhase(p)
	mismatches, err := audit(ctx, w, sampleForAudit(p.keys, opt.seed))
	if err != nil {
		return nil, err
	}

	storeDir := ""
	if w.store {
		if storeDir, err = os.MkdirTemp("", "loadgen-replay-"); err != nil {
			return nil, err
		}
		defer func() {
			if err := os.RemoveAll(storeDir); err != nil {
				fmt.Fprintf(os.Stderr, "loadgen: removing %s: %v\n", storeDir, err)
			}
		}()
	}
	bodies := make(map[string][]byte, len(p.keys))
	for k, s := range p.keys {
		bodies[k] = s.body
	}
	rp, err := newReplayer(ctx, w, storeDir, bodies)
	if err != nil {
		return nil, err
	}
	for _, r := range warm {
		if err := rp.serve(-1, r); err != nil {
			return nil, fmt.Errorf("replaying warm-up %s: %w", r.Body, err)
		}
	}
	rp.tr = tr
	deadline := time.Now().Add(opt.window)
	for _, rec := range p.records {
		if time.Now().After(deadline) {
			break
		}
		req := w.gen(opt.seed, rec.idx)
		if err := rp.serve(rec.idx, req); err != nil {
			rp.mismatch("replay of request %d (%s) failed: %v", rec.idx, req.Body, err)
		}
	}
	mismatches = append(mismatches, rp.mismatches...)

	out := &outcome{
		attempted: len(p.records),
		failed:    p.failures + len(mismatches),
		errs:      append(p.errs, mismatches...),
		values:    perLayerValues(w, p, untraced["throughput_rps"].v, rp, tr.spans, len(mismatches)),
	}
	for _, d := range demoted {
		out.values[d.name] = untraced[d.name]
	}
	if opt.spans != "" {
		if err := tr.write(opt.spans); err != nil {
			return nil, err
		}
	}
	return out, nil
}
