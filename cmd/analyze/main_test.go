package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"path/filepath"
	"strings"
	"testing"

	"github.com/perfmetrics/eventlens/internal/cat"
	"github.com/perfmetrics/eventlens/internal/catio"
	"github.com/perfmetrics/eventlens/internal/cli"
	"github.com/perfmetrics/eventlens/internal/goldie"
	"github.com/perfmetrics/eventlens/internal/suite"
)

// runCmd invokes run in-process and fails the test on an unexpected error.
func runCmd(t *testing.T, args ...string) (string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run(%q): %v\nstderr:\n%s", args, err, stderr.String())
	}
	return stdout.String(), stderr.String()
}

func TestGoldenCPUFlops(t *testing.T) {
	out, _ := runCmd(t, "-bench", "cpu-flops", "-rounded")
	goldie.Assert(t, "cpu-flops-rounded", []byte(out))
}

func TestGoldenBranchExtras(t *testing.T) {
	out, _ := runCmd(t, "-bench", "branch", "-presets", "-ratios")
	goldie.Assert(t, "branch-presets-ratios", []byte(out))
}

// TestGoldenAutoTau pins -autotau: the suggestion line, then the analysis at
// the suggested tau. dcache's spectrum has no decade-wide gap, so its
// suggestion falls back to 1e-10, which keeps no representable event; the
// golden records that error after the suggestion line.
func TestGoldenAutoTau(t *testing.T) {
	for _, bench := range []string{"branch", "dcache"} {
		var stdout, stderr bytes.Buffer
		out := ""
		if err := run([]string{"-bench", bench, "-autotau"}, &stdout, &stderr); err != nil {
			out = "error: " + err.Error() + "\n"
		}
		goldie.Assert(t, bench+"-autotau", []byte(stdout.String()+out))
	}
}

func TestFlagSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-h"}, &stdout, &stderr); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h: got %v, want flag.ErrHelp", err)
	}
	if !strings.Contains(stderr.String(), "-bench") {
		t.Error("-h did not print usage")
	}
	var ue *cli.UsageError
	if err := run([]string{"-definitely-not-a-flag"}, &stdout, &stderr); !errors.As(err, &ue) {
		t.Errorf("bad flag: got %v, want UsageError", err)
	}
	if err := run(nil, &stdout, &stderr); !errors.As(err, &ue) {
		t.Errorf("missing -bench: got %v, want UsageError", err)
	}
}

func TestNegativeWorkersRejected(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-bench", "cpu-flops", "-workers", "-2"}, &stdout, &stderr)
	var ue *cli.UsageError
	if !errors.As(err, &ue) {
		t.Fatalf("got %v, want UsageError", err)
	}
	if !strings.Contains(err.Error(), "workers must be >= 0") {
		t.Errorf("unhelpful message: %v", err)
	}
}

// TestThresholdFlagsAppliedOrRejected: a given -tau or -alpha is applied or
// rejected with a usage error (exit 2) naming it, before anything is
// collected, and never ignored. NaN, negative values, ±Inf and a zero alpha
// used to run the defaults (the report said tau=1e-10), a +Inf tau kept
// every noisy event, and a +Inf alpha failed deep in QRCP. A valid -tau,
// zero included, reaches the report.
func TestThresholdFlagsAppliedOrRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-tau", "NaN"}, {"-tau", "-1"}, {"-tau", "Inf"}, {"-tau", "-Inf"},
		{"-alpha", "NaN"}, {"-alpha", "-2"}, {"-alpha", "Inf"}, {"-alpha", "0"},
	} {
		var stdout, stderr bytes.Buffer
		err := run(append([]string{"-bench", "branch"}, args...), &stdout, &stderr)
		var ue *cli.UsageError
		if !errors.As(err, &ue) || !strings.Contains(err.Error(), args[0][1:]) {
			t.Errorf("%v: got %v, want a usage error naming %s", args, err, args[0][1:])
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed %q", args, stdout.String())
		}
	}
	for _, tau := range [][2]string{{"2e-10", "2e-10"}, {"0", "0e+00"}} {
		out, _ := runCmd(t, "-bench", "branch", "-tau", tau[0])
		if want := "noise analysis (tau=" + tau[1] + ")"; !strings.HasPrefix(out, want) {
			t.Errorf("-tau %s: report begins %q, want %q", tau[0], out[:min(len(out), 40)], want)
		}
	}
}

// TestCollectionFlagsRejectedWithIn: -platform and -platform-dir pick where
// to collect, so with -in (nothing is collected) each is a usage error
// rather than silently ignored — even when the file itself analyzes fine.
func TestCollectionFlagsRejectedWithIn(t *testing.T) {
	bench, err := suite.ByName("branch")
	if err != nil {
		t.Fatal(err)
	}
	set, err := bench.Collect(context.Background(), cat.RunConfig{Reps: 2, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	in := filepath.Join(t.TempDir(), "branch.json.gz")
	if err := catio.WriteFile(in, set); err != nil {
		t.Fatal(err)
	}
	runCmd(t, "-in", in, "-bench", "branch")
	for _, flagArgs := range [][]string{
		{"-platform", "graviton"},
		{"-platform-dir", filepath.Join(t.TempDir(), "does-not-exist")},
	} {
		var stdout, stderr bytes.Buffer
		err := run(append([]string{"-in", in, "-bench", "branch"}, flagArgs...), &stdout, &stderr)
		var ue *cli.UsageError
		if !errors.As(err, &ue) {
			t.Errorf("-in with %s: got %v, want UsageError", flagArgs[0], err)
		} else if !strings.Contains(err.Error(), "-in") {
			t.Errorf("-in with %s: unhelpful message: %v", flagArgs[0], err)
		}
	}
}
