package main

import (
	"bytes"
	"errors"
	"flag"
	"strings"
	"testing"

	"github.com/perfmetrics/eventlens/internal/cli"
	"github.com/perfmetrics/eventlens/internal/goldie"
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

func TestGoldenMI250X(t *testing.T) {
	out, _ := runCmd(t, "-platform", "mi250x")
	goldie.Assert(t, "mi250x", []byte(out))
}

func TestGoldenSPRBranch(t *testing.T) {
	out, _ := runCmd(t, "-platform", "spr", "-bench", "branch")
	goldie.Assert(t, "spr-branch", []byte(out))
}

func TestGoldenSPRBranchJSON(t *testing.T) {
	out, _ := runCmd(t, "-platform", "spr", "-bench", "branch", "-json")
	goldie.Assert(t, "spr-branch-json", []byte(out))
}

func TestFlagSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-h"}, &stdout, &stderr); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h: got %v, want flag.ErrHelp", err)
	}
	if !strings.Contains(stderr.String(), "-platform") {
		t.Error("-h did not print usage")
	}
	var ue *cli.UsageError
	if err := run([]string{"-definitely-not-a-flag"}, &stdout, &stderr); !errors.As(err, &ue) {
		t.Errorf("bad flag: got %v, want UsageError", err)
	}
	if err := run(nil, &stdout, &stderr); !errors.As(err, &ue) {
		t.Errorf("missing -platform: got %v, want UsageError", err)
	}
}

func TestNegativeWorkersRejected(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-platform", "spr", "-workers", "-2"}, &stdout, &stderr)
	var ue *cli.UsageError
	if !errors.As(err, &ue) {
		t.Fatalf("got %v, want UsageError", err)
	}
	if !strings.Contains(err.Error(), "workers must be >= 0") {
		t.Errorf("unhelpful message: %v", err)
	}
}

func TestNegativeToleranceRejected(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-platform", "spr", "-fit-tol", "-0.5"}, &stdout, &stderr)
	var ue *cli.UsageError
	if !errors.As(err, &ue) {
		t.Fatalf("got %v, want UsageError", err)
	}
}

// TestToleranceFlagsAppliedOrRejected: a given tolerance is applied or
// rejected with a usage error (exit 2), before anything is collected, and
// never ignored. NaN used to run the default tolerances, and a +Inf fit
// tolerance printed "fit +Inf". A valid value reaches the report's
// tolerance line.
func TestToleranceFlagsAppliedOrRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-noisy-tau", "NaN"}, {"-scale-tol", "NaN"}, {"-derived-cos", "NaN"}, {"-fit-tol", "NaN"},
		{"-fit-tol", "Inf"}, {"-noisy-tau", "-Inf"}, {"-scale-tol", "0"}, {"-derived-cos", "1.5"},
	} {
		var stdout, stderr bytes.Buffer
		err := run(append([]string{"-platform", "spr", "-bench", "branch"}, args...), &stdout, &stderr)
		var ue *cli.UsageError
		if !errors.As(err, &ue) {
			t.Errorf("%v: got %v, want UsageError", args, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed %q", args, stdout.String())
		}
	}
	out, _ := runCmd(t, "-platform", "spr", "-bench", "branch", "-fit-tol", "1e-3")
	if !strings.Contains(out, "fit 1e-03,") {
		t.Errorf("-fit-tol 1e-3 did not reach the report:\n%s", out[:min(len(out), 200)])
	}
}

// TestWorkersByteIdentical pins the CLI half of the determinism contract:
// serial and concurrent collection print the same bytes, text and JSON.
func TestWorkersByteIdentical(t *testing.T) {
	for _, extra := range [][]string{nil, {"-json"}} {
		args := append([]string{"-platform", "spr", "-bench", "branch"}, extra...)
		serial, _ := runCmd(t, append(args, "-workers", "1")...)
		parallel, _ := runCmd(t, append(args, "-workers", "8")...)
		if serial != parallel {
			t.Errorf("%v: workers changed the output", extra)
		}
	}
}

// TestCorruptFaultsJSONFails: corrupt faults write NaN and ±Inf into
// measured means, which JSON cannot carry. -json must fail, so the command
// exits non-zero, and print nothing, instead of exiting 0 with an empty
// body. The text report still renders the values.
func TestCorruptFaultsJSONFails(t *testing.T) {
	args := []string{"-platform", "spr", "-bench", "branch", "-faults", "seed=3,corrupt=0.1"}
	var stdout, stderr bytes.Buffer
	err := run(append(args, "-json"), &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "unsupported value") {
		t.Fatalf("-json under corrupt faults: err = %v, want the encoder's error", err)
	}
	if stdout.Len() != 0 {
		t.Fatalf("-json under corrupt faults printed %d bytes", stdout.Len())
	}
	if out, _ := runCmd(t, args...); !strings.Contains(out, "Inf") {
		t.Fatal("text report under corrupt faults shows no corrupt value")
	}
}

// TestErrorPrefixedOnce: internal/validate's errors already begin with
// "validate: ", so the exit path must not add the command name again.
func TestErrorPrefixedOnce(t *testing.T) {
	for _, c := range []struct {
		faults string
		json   bool
		want   string // the stderr line's start
	}{
		{"seed=3,corrupt=0.1", true, "validate: encode report: json: unsupported value: "},
		{"seed=3,transient=1.0,retries=0", false, "validate: every benchmark degraded under fault injection"},
	} {
		args := []string{"-platform", "spr", "-bench", "branch", "-faults", c.faults}
		if c.json {
			args = append(args, "-json")
		}
		var stdout, stderr bytes.Buffer
		if code := cli.ExitCode("validate", run(args, &stdout, &stderr), &stderr); code != 1 {
			t.Fatalf("-faults %s: exit %d, want 1", c.faults, code)
		}
		got := stderr.String()
		if !strings.HasPrefix(got, c.want) || strings.Count(got, "validate: ") != 1 || strings.Count(got, "\n") != 1 {
			t.Errorf("-faults %s: stderr %q, want one line starting %q", c.faults, got, c.want)
		}
	}
}
