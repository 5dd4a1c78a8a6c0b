package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/perfmetrics/eventlens/internal/cli"
	"github.com/perfmetrics/eventlens/internal/goldie"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: github.com/perfmetrics/eventlens
cpu: Example CPU @ 2.00GHz
BenchmarkCollectDCache-8   	      10	 110250 ns/op	   64320 B/op	     212 allocs/op
BenchmarkQRCP-8            	    5000	    2150 ns/op
PASS
ok  	github.com/perfmetrics/eventlens	1.234s
`

func TestGoldenConvert(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(nil, strings.NewReader(sampleBench), &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}
	goldie.Assert(t, "convert", stdout.Bytes())
}

func TestMalformedLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run(nil, strings.NewReader("BenchmarkBroken-8 10\n"), &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "malformed") {
		t.Errorf("got %v, want malformed-line error", err)
	}
}

func TestEmptyInput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(nil, strings.NewReader("PASS\n"), &stdout, &stderr); err == nil {
		t.Error("empty input must be an error, not an empty document")
	}
}

func TestFlagSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-h"}, strings.NewReader(""), &stdout, &stderr); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h: got %v, want flag.ErrHelp", err)
	}
	if !strings.Contains(stderr.String(), "-out") {
		t.Error("-h did not print usage")
	}
	var ue *cli.UsageError
	if err := run([]string{"-nope"}, strings.NewReader(""), &stdout, &stderr); !errors.As(err, &ue) {
		t.Errorf("bad flag: got %v, want UsageError", err)
	}
}

// writeBaseline writes a baseline document with the given ns/op for
// BenchmarkCollectDCache (suffix differing from the sample's -8 on purpose,
// to prove name normalization).
func writeBaseline(t *testing.T, ns float64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH.json")
	doc := fmt.Sprintf(`{"benchmarks":[{"name":"BenchmarkCollectDCache-4","iterations":1,"ns_per_op":%g,"bytes_per_op":-1,"allocs_per_op":-1}]}`, ns)
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestGuardPassAndFail pins the bench-guard contract: within the factor the
// guard passes, past it the guard fails naming both numbers.
func TestGuardPassAndFail(t *testing.T) {
	// Sample run has BenchmarkCollectDCache-8 at 110250 ns/op.
	pass := writeBaseline(t, 60000) // 2x budget = 120000 > 110250
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-guard", pass}, strings.NewReader(sampleBench), &stdout, &stderr); err != nil {
		t.Fatalf("guard should pass: %v", err)
	}
	if !strings.Contains(stdout.String(), "within") {
		t.Errorf("no pass message: %q", stdout.String())
	}
	fail := writeBaseline(t, 50000) // 2x budget = 100000 < 110250
	err := run([]string{"-guard", fail}, strings.NewReader(sampleBench), &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Fatalf("guard should fail with a regression message, got %v", err)
	}
}

// TestGuardMissingBenchmark proves a guard that cannot find its subject
// errors instead of passing silently.
func TestGuardMissingBenchmark(t *testing.T) {
	base := writeBaseline(t, 60000)
	var stdout, stderr bytes.Buffer
	err := run([]string{"-guard", base, "-guard-name", "BenchmarkNoSuch"},
		strings.NewReader(sampleBench), &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "no benchmark") {
		t.Fatalf("want missing-benchmark error, got %v", err)
	}
	err = run([]string{"-guard", filepath.Join(t.TempDir(), "missing.json")},
		strings.NewReader(sampleBench), &stdout, &stderr)
	if err == nil {
		t.Fatal("want error for missing baseline file")
	}
}
