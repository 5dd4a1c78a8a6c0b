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
