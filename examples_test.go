package eventlens_test

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"testing"

	"github.com/perfmetrics/eventlens/internal/goldie"
)

// TestExamplesGolden builds the offline examples and compares each one's
// stdout with its golden file, testdata/golden/examples/<name>.golden.
// examples/client is left out: it drives a running eventlensd.
func TestExamplesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the examples; skipped in -short")
	}
	names := []string{"cachemetrics", "crossarch", "customarch", "gpuflops", "quickstart", "thresholds"}
	dir := t.TempDir()
	args := []string{"build", "-o", dir + string(filepath.Separator)}
	for _, name := range names {
		args = append(args, "./examples/"+name)
	}
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(filepath.Join(dir, name))
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%v\n%s", err, stderr.String())
			}
			goldie.Assert(t, "examples/"+name, stdout.Bytes())
		})
	}
}
