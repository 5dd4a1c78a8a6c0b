package main

import (
	"bytes"
	"errors"
	"flag"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/perfmetrics/eventlens/internal/cli"
	"github.com/perfmetrics/eventlens/internal/goldie"
)

// fixtureDirs are the seeded-violation packages, one per analyzer (goraw
// seeds a second violation in a _test.go file to prove test coverage, and
// internal/machine a second seedcoord violation through the module's own
// generator constructor).
var fixtureDirs = []string{
	"testdata/src/cachekey",
	"testdata/src/errsink",
	"testdata/src/floateq",
	"testdata/src/goraw",
	"testdata/src/internal/core",
	"testdata/src/internal/machine",
	"testdata/src/internal/testonly",
	"testdata/src/lockbyvalue",
	"testdata/src/maporder",
	"testdata/src/seedcoord",
}

// fixtureFindings is the seeded-violation count across fixtureDirs: one per
// analyzer, plus goraw's extra _test.go seed and seedcoord's newRNG seed.
const fixtureFindings = "11 finding(s)"

// runLint runs the command in-process and returns stdout plus the error.
func runLint(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(args, &stdout, &stderr)
	if stderr.Len() > 0 {
		t.Logf("stderr:\n%s", stderr.String())
	}
	return stdout.String(), err
}

func TestGoldenList(t *testing.T) {
	out, err := runLint(t, "-list")
	if err != nil {
		t.Fatalf("-list: %v", err)
	}
	goldie.Assert(t, "list", []byte(out))
}

// TestGoldenFixtures seeds one violation per analyzer and snapshots the
// diagnostics: every analyzer must fire, at the right file and line, with
// exit status 1.
func TestGoldenFixtures(t *testing.T) {
	args := append([]string{"-allow", "none"}, fixtureDirs...)
	out, err := runLint(t, args...)
	if err == nil {
		t.Fatal("fixture run succeeded, want findings")
	}
	if code := cli.ExitCode("lint", err, new(bytes.Buffer)); code != 1 {
		t.Errorf("exit code = %d, want 1", code)
	}
	if err.Error() != fixtureFindings {
		t.Errorf("error = %q, want %q", err, fixtureFindings)
	}
	goldie.Assert(t, "fixtures", []byte(out))
}

// TestGoldenFixturesJSON snapshots the -json document for the same run: CI
// annotation tooling parses this shape.
func TestGoldenFixturesJSON(t *testing.T) {
	args := append([]string{"-allow", "none", "-json"}, fixtureDirs...)
	out, err := runLint(t, args...)
	if err == nil || err.Error() != fixtureFindings {
		t.Fatalf("err = %v, want %s", err, fixtureFindings)
	}
	goldie.Assert(t, "fixtures-json", []byte(out))
}

// TestTestsFlagGatesTestFiles proves -tests=false hides the _test.go seed
// while the regular-file seed still fires.
func TestTestsFlagGatesTestFiles(t *testing.T) {
	out, err := runLint(t, "-allow", "none", "-tests=false", "testdata/src/goraw")
	if err == nil || err.Error() != "1 finding(s)" {
		t.Fatalf("err = %v, want only the non-test seed", err)
	}
	if strings.Contains(out, "_test.go") {
		t.Errorf("-tests=false still reported a test file:\n%s", out)
	}
	out, err = runLint(t, "-allow", "none", "testdata/src/goraw")
	if err == nil || err.Error() != "2 finding(s)" {
		t.Fatalf("err = %v, want both seeds with tests on\n%s", err, out)
	}
	if !strings.Contains(out, "goraw_test.go") {
		t.Errorf("default run missed the _test.go seed:\n%s", out)
	}
}

// TestGoldenSingleAnalyzer checks -run filtering: only the selected
// analyzer's finding survives.
func TestGoldenSingleAnalyzer(t *testing.T) {
	args := append([]string{"-allow", "none", "-run", "maporder"}, fixtureDirs...)
	out, err := runLint(t, args...)
	if err == nil || err.Error() != "1 finding(s)" {
		t.Fatalf("err = %v, want 1 finding", err)
	}
	goldie.Assert(t, "run-maporder", []byte(out))
}

// TestAllowlistSuppresses runs the fixtures under an allowlist covering
// every seeded violation: the run must come back clean.
func TestAllowlistSuppresses(t *testing.T) {
	args := append([]string{"-allow", "testdata/allow/fixtures.allow"}, fixtureDirs...)
	out, err := runLint(t, args...)
	if err != nil {
		t.Fatalf("allowlisted run failed: %v\n%s", err, out)
	}
	if out != "" {
		t.Errorf("allowlisted run printed output:\n%s", out)
	}
}

// TestGoldenStaleAllow checks that an allowlist entry matching no finding is
// itself an error — the allowlist cannot outlive the code it excuses.
func TestGoldenStaleAllow(t *testing.T) {
	out, err := runLint(t, "-allow", "testdata/allow/stale.allow", "testdata/src/floateq")
	if err == nil || err.Error() != "1 finding(s)" {
		t.Fatalf("err = %v, want the stale entry reported as 1 finding", err)
	}
	goldie.Assert(t, "stale-allow", []byte(out))
}

// TestModuleLintsClean is the merge gate in test form: the repository's own
// tree must produce zero findings.
func TestModuleLintsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	out, err := runLint(t, "./...")
	if err != nil {
		t.Fatalf("module is not lint-clean: %v\n%s", err, out)
	}
}

// TestTestOnlyIndependentOfNamedPackages checks that naming a package
// cannot conjure testonly findings: uses come from the whole module, so
// linting one package under internal/ reports a subset of what ./... does.
func TestTestOnlyIndependentOfNamedPackages(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	all, _ := runLint(t, "-allow", "none", "-tests=false", "-run", "testonly", "./...")
	reported := make(map[string]bool)
	for _, line := range strings.Split(all, "\n") {
		reported[line] = true
	}
	var dirs []string
	err := filepath.WalkDir("../../internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") &&
			!slices.Contains(dirs, filepath.Dir(path)) {
			dirs = append(dirs, filepath.Dir(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) < 20 {
		t.Fatalf("found only %d packages under internal/", len(dirs))
	}
	for _, dir := range dirs {
		out, _ := runLint(t, "-allow", "none", "-tests=false", "-run", "testonly", dir)
		for _, line := range strings.Split(out, "\n") {
			if !reported[line] {
				t.Errorf("lint %s reports %q, which ./... does not", dir, line)
			}
		}
	}
}

func TestFlagSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-h"}, &stdout, &stderr); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h: got %v, want flag.ErrHelp", err)
	}
	if !strings.Contains(stderr.String(), "-allow") {
		t.Error("-h did not print usage")
	}
	var ue *cli.UsageError
	if err := run([]string{"-nope"}, &stdout, &stderr); !errors.As(err, &ue) {
		t.Errorf("bad flag: got %v, want UsageError", err)
	}
	if err := run([]string{"-run", "nosuch", "testdata/src/floateq"}, &stdout, &stderr); !errors.As(err, &ue) {
		t.Errorf("unknown analyzer: got %v, want UsageError", err)
	}
}
