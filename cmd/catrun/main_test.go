package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/perfmetrics/eventlens/internal/catio"
	"github.com/perfmetrics/eventlens/internal/cli"
	"github.com/perfmetrics/eventlens/internal/goldie"
)

func runCmd(t *testing.T, args ...string) (string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run(%q): %v\nstderr:\n%s", args, err, stderr.String())
	}
	return stdout.String(), stderr.String()
}

func TestGoldenList(t *testing.T) {
	out, _ := runCmd(t, "-list")
	goldie.Assert(t, "list", []byte(out))
}

// TestRunRoundTrip runs the cheapest benchmark end to end and reads the file
// back — catrun's whole contract, minus the golden-unfriendly file paths.
func TestRunRoundTrip(t *testing.T) {
	out := filepath.Join(t.TempDir(), "branch.json.gz")
	_, logs := runCmd(t, "-bench", "branch", "-out", out, "-reps", "2")
	if !strings.Contains(logs, "wrote") {
		t.Errorf("no progress log on stderr: %q", logs)
	}
	set, err := catio.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if set.Benchmark != "branch" || len(set.Order) == 0 {
		t.Errorf("round-trip set: benchmark %q, %d events", set.Benchmark, len(set.Order))
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
	if err := run([]string{"-nope"}, &stdout, &stderr); !errors.As(err, &ue) {
		t.Errorf("bad flag: got %v, want UsageError", err)
	}
	if err := run(nil, &stdout, &stderr); !errors.As(err, &ue) {
		t.Errorf("missing -bench/-out: got %v, want UsageError", err)
	}
}

// TestNegativeRunConfigRejected pins catrun's run checks: negative
// -reps/-threads, and runs past the collection bounds or with a negative
// worker count, are usage errors reported before the run is announced.
func TestNegativeRunConfigRejected(t *testing.T) {
	for _, c := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-reps", "-1"}, "reps must be >= 1"},
		{[]string{"-threads", "-3"}, "threads must be >= 1"},
		{[]string{"-reps", "300"}, "reps*threads must be <= 256"},
		{[]string{"-threads", "17"}, "threads must be <= 16"},
		{[]string{"-reps", "100", "-threads", "4"}, "reps*threads must be <= 256"},
		{[]string{"-workers", "-3"}, "workers must be >= 0"},
	} {
		args := append([]string{"-bench", "branch", "-out", filepath.Join(t.TempDir(), "x.json")}, c.args...)
		var stdout, stderr bytes.Buffer
		err := run(args, &stdout, &stderr)
		var ue *cli.UsageError
		if !errors.As(err, &ue) {
			t.Errorf("run(%q): got %v, want UsageError", args, err)
			continue
		}
		if !strings.Contains(err.Error(), c.msg) {
			t.Errorf("run(%q): message %q, want it to contain %q", args, err, c.msg)
		}
		if stderr.Len() != 0 {
			t.Errorf("run(%q): announced a rejected run: %q", args, stderr.String())
		}
	}
}

// TestProfileFlags runs a collection with -cpuprofile/-memprofile and
// checks both profiles land on disk non-empty — the `make profile`
// workflow documented in TESTING.md.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	out := filepath.Join(dir, "branch.json")
	_, logs := runCmd(t, "-bench", "branch", "-out", out, "-reps", "1",
		"-workers", "2", "-cpuprofile", cpu, "-memprofile", mem)
	if !strings.Contains(logs, "heap profile") {
		t.Errorf("no heap-profile log on stderr: %q", logs)
	}
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile %s: %v", path, err)
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", path)
		}
	}
}
