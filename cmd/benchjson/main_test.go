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

// writeBaseline writes a baseline document with the given ns/op, B/op and
// allocs/op for BenchmarkCollectDCache (suffix differing from the sample's
// -8 on purpose, to prove name normalization; -1 means unreported).
func writeBaseline(t *testing.T, ns float64, bytes, allocs int64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH.json")
	doc := fmt.Sprintf(`{"benchmarks":[{"name":"BenchmarkCollectDCache-4","iterations":1,"ns_per_op":%g,"bytes_per_op":%d,"allocs_per_op":%d}]}`, ns, bytes, allocs)
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestGuardPassAndFail pins the bench-guard contract: within the factors the
// guard passes, past any of them it fails naming both numbers, on every row
// of the guarded benchmark.
func TestGuardPassAndFail(t *testing.T) {
	// Sample run has BenchmarkCollectDCache-8 at 110250 ns/op, 64320 B/op
	// and 212 allocs/op. A second -cpu row doubles the allocations.
	secondRow := strings.Replace(sampleBench, "BenchmarkQRCP-8",
		"BenchmarkCollectDCache-2   	      10	 100000 ns/op	  128640 B/op	     424 allocs/op\nBenchmarkQRCP-8", 1)
	noMem := strings.Replace(sampleBench, "	   64320 B/op	     212 allocs/op", "", 1)
	for _, c := range []struct {
		name     string
		run      string
		baseline string
		want     string // "" passes; otherwise the error names it
	}{
		{"within both factors", sampleBench, writeBaseline(t, 60000, 60000, 210), ""},
		{"no allocations in the baseline", noMem, writeBaseline(t, 60000, -1, -1), ""},
		{"ns/op past 2x", sampleBench, writeBaseline(t, 50000, 64320, 212), "ns/op"},
		{"B/op past 1.1x", sampleBench, writeBaseline(t, 60000, 58000, 212), "64320 B/op"},
		{"allocs/op past 1.03x", sampleBench, writeBaseline(t, 60000, 64320, 205), "212 allocs/op"},
		{"allocs/op within 1.03x", sampleBench, writeBaseline(t, 60000, 64320, 206), ""},
		{"one allocation over a small baseline", strings.Replace(sampleBench, "212 allocs/op", "15 allocs/op", 1), writeBaseline(t, 60000, 64320, 14), ""},
		{"two allocations over a small baseline", strings.Replace(sampleBench, "212 allocs/op", "16 allocs/op", 1), writeBaseline(t, 60000, 64320, 14), "16 allocs/op"},
		{"B/op within 1.1x", sampleBench, writeBaseline(t, 60000, 58500, 212), ""},
		{"allocations unreported", noMem, writeBaseline(t, 60000, 64320, 212), "reports no B/op"},
		{"second -cpu row past 1.1x", secondRow, writeBaseline(t, 60000, 64320, 212), "BenchmarkCollectDCache-2 regressed to 128640 B/op"},
	} {
		var stdout, stderr bytes.Buffer
		err := run([]string{"-guard", c.baseline}, strings.NewReader(c.run), &stdout, &stderr)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: guard should pass: %v", c.name, err)
		case c.want == "" && !strings.Contains(stdout.String(), "within"):
			t.Errorf("%s: no pass message: %q", c.name, stdout.String())
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), "regressed") && !strings.Contains(err.Error(), "reports no")):
			t.Errorf("%s: guard should fail with a regression message, got %v", c.name, err)
		case c.want != "" && !strings.Contains(err.Error(), c.want):
			t.Errorf("%s: error %q does not name %q", c.name, err, c.want)
		}
	}
}

// TestGuardMissingBenchmark proves a guard that cannot find its subject
// errors instead of passing silently.
func TestGuardMissingBenchmark(t *testing.T) {
	base := writeBaseline(t, 60000, -1, -1)
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
