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
