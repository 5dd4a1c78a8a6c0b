package textplot

import (
	"strings"
	"testing"
)

func TestLogScatterBasic(t *testing.T) {
	out := LogScatter("title", []float64{0, 0, 1e-8, 1e-4, 1, 100}, 1e-6, 40, 10)
	if !strings.HasPrefix(out, "title\n") {
		t.Fatalf("title missing: %q", out)
	}
	if !strings.Contains(out, "*") {
		t.Fatalf("no points plotted")
	}
	if !strings.Contains(out, "tau=1e-06") {
		t.Fatalf("threshold legend missing: %q", out)
	}
	if !strings.Contains(out, "n=6") {
		t.Fatalf("count legend missing")
	}
	// Threshold line drawn.
	if !strings.Contains(out, "---") {
		t.Fatalf("threshold line missing")
	}
}

func TestLogScatterEmpty(t *testing.T) {
	out := LogScatter("t", nil, 0, 40, 10)
	if !strings.Contains(out, "(no data)") {
		t.Fatalf("empty input not handled: %q", out)
	}
}

func TestLogScatterAllZero(t *testing.T) {
	out := LogScatter("t", []float64{0, 0, 0}, 0, 20, 6)
	if !strings.Contains(out, "*") {
		t.Fatalf("zero values should plot at the floor decade")
	}
}

func TestLogScatterMinimumDimensions(t *testing.T) {
	out := LogScatter("t", []float64{1, 2}, 0, 1, 1)
	if len(strings.Split(out, "\n")) < 4 {
		t.Fatalf("dimensions not clamped: %q", out)
	}
}

func TestSeriesBasic(t *testing.T) {
	combo := []float64{1, 0, 0.5}
	sig := []float64{1, 0, 1}
	out := Series("s", combo, sig, []string{"a", "b", "c"}, 40, 8)
	if !strings.Contains(out, "@") {
		t.Fatalf("coincident points should render '@': %q", out)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Fatalf("divergent points should render '*' and 'o': %q", out)
	}
}

func TestSeriesMismatchedLengths(t *testing.T) {
	out := Series("s", []float64{1}, []float64{1, 2}, nil, 40, 8)
	if !strings.Contains(out, "(no data)") {
		t.Fatalf("mismatch not handled: %q", out)
	}
}

func TestSeriesAllZero(t *testing.T) {
	out := Series("s", []float64{0, 0}, []float64{0, 0}, nil, 40, 6)
	if !strings.Contains(out, "@") {
		t.Fatalf("zero series should still render coincident points")
	}
}
