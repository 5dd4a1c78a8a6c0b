package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/perfmetrics/eventlens/internal/mat"
)

// pipelineFixture builds a 3-point, 2-ideal basis and a matching set of
// events: two clean basis-like events, a combined event, a noisy event, an
// all-zero event, and an unrepresentable event.
func pipelineFixture(t *testing.T) (*Pipeline, *MeasurementSet) {
	t.Helper()
	e := mat.FromColumns([][]float64{
		{10, 20, 0},
		{0, 0, 30},
	})
	basis, err := NewBasis([]string{"I1", "I2"}, []string{"p1", "p2", "p3"}, e)
	if err != nil {
		t.Fatal(err)
	}
	set := NewMeasurementSet("fixture", "test-sim", []string{"p1", "p2", "p3"})
	add := func(name string, reps ...[]float64) {
		t.Helper()
		for r, v := range reps {
			if err := set.Add(name, Measurement{Rep: r, Vector: v}); err != nil {
				t.Fatal(err)
			}
		}
	}
	add("PURE_1", []float64{10, 20, 0}, []float64{10, 20, 0})
	add("PURE_2", []float64{0, 0, 30}, []float64{0, 0, 30})
	add("COMBINED", []float64{10, 20, 30}, []float64{10, 20, 30})
	add("NOISY", []float64{10, 20, 0}, []float64{15, 18, 2})
	add("ZERO", []float64{0, 0, 0}, []float64{0, 0, 0})
	add("WEIRD", []float64{5, 5, 5}, []float64{5, 5, 5})
	return &Pipeline{
		Basis:  basis,
		Config: Config{Tau: 1e-10, Alpha: 1e-3, ProjectionTol: 1e-2, RoundTol: 0.05},
	}, set
}

func TestPipelineHappyPath(t *testing.T) {
	pipe, set := pipelineFixture(t)
	res, err := pipe.Analyze(set)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Noise.Discarded) != 1 || res.Noise.Discarded[0] != "ZERO" {
		t.Fatalf("discarded = %v", res.Noise.Discarded)
	}
	if len(res.Noise.Filtered) != 1 || res.Noise.Filtered[0] != "NOISY" {
		t.Fatalf("filtered = %v", res.Noise.Filtered)
	}
	if len(res.Projection.Dropped) != 1 || res.Projection.Dropped[0] != "WEIRD" {
		t.Fatalf("projection dropped = %v", res.Projection.Dropped)
	}
	want := []string{"PURE_1", "PURE_2"}
	if len(res.SelectedEvents) != 2 || res.SelectedEvents[0] != want[0] || res.SelectedEvents[1] != want[1] {
		t.Fatalf("selected = %v want %v", res.SelectedEvents, want)
	}
	def, err := res.DefineMetric(Signature{Name: "I2 metric", Coeffs: []float64{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if def.BackwardError > 1e-12 {
		t.Fatalf("error = %v", def.BackwardError)
	}
}

// TestAnalyzeProfileReadsBothTolerances pins where each tolerance acts.
// OFF's relative projection residual (about 0.05) lies between the two
// ProjectionTol values, so only the larger keeps it. A and A_NEAR differ
// by 0.01 in I3: below the larger Alpha's beta (0.1*sqrt(3)), where A_NEAR
// depends on A, and above the smaller's, where QRCP selects it too. Every
// mixed pair below selects differently with the two tolerances swapped.
func TestAnalyzeProfileReadsBothTolerances(t *testing.T) {
	points := []string{"p1", "p2", "p3", "p4"}
	basis, err := NewBasis([]string{"I1", "I2", "I3"}, points,
		mat.FromColumns([][]float64{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}}))
	if err != nil {
		t.Fatal(err)
	}
	set := NewMeasurementSet("tolerances", "test-sim", points)
	for rep := 0; rep < 2; rep++ {
		for _, e := range []struct {
			name string
			v    []float64
		}{
			{"A", []float64{1, 0, 0, 0}},
			{"A_NEAR", []float64{1, 0, 0.01, 0}},
			{"OFF", []float64{0, 1, 0, 0.05}},
		} {
			if err := set.Add(e.name, Measurement{Rep: rep, Vector: e.v}); err != nil {
				t.Fatal(err)
			}
		}
	}
	prof := ProfileNoise(set, 1)
	for _, c := range []struct {
		alpha, ptol       float64
		dropped, selected string
	}{
		{0.1, 0.1, "[]", "[A OFF]"},
		{1e-3, 0.1, "[]", "[A OFF A_NEAR]"},
		{0.1, 0.01, "[OFF]", "[A]"},
		{1e-3, 0.01, "[OFF]", "[A A_NEAR]"},
	} {
		pipe := &Pipeline{Basis: basis, Config: Config{Tau: 1e-10, Alpha: c.alpha, ProjectionTol: c.ptol, Workers: 1}}
		res, err := pipe.AnalyzeProfile(context.Background(), prof)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(res.Projection.Dropped); got != c.dropped {
			t.Errorf("alpha %g, projection_tol %g: dropped %s, want %s", c.alpha, c.ptol, got, c.dropped)
		}
		if got := fmt.Sprint(res.SelectedEvents); got != c.selected {
			t.Errorf("alpha %g, projection_tol %g: selected %s, want %s", c.alpha, c.ptol, got, c.selected)
		}
	}
}

func TestPipelineRejectsInvalidSet(t *testing.T) {
	pipe, set := pipelineFixture(t)
	set.Order = append(set.Order, "GHOST")
	if _, err := pipe.Analyze(set); err == nil {
		t.Fatalf("invalid set must fail")
	}
}

func TestPipelineRejectsRankDeficientBasis(t *testing.T) {
	col := []float64{1, 2, 3}
	e := mat.FromColumns([][]float64{col, col})
	basis, err := NewBasis([]string{"a", "b"}, []string{"p1", "p2", "p3"}, e)
	if err != nil {
		t.Fatal(err)
	}
	_, set := pipelineFixture(t)
	pipe := &Pipeline{Basis: basis, Config: DefaultConfig()}
	if _, err := pipe.Analyze(set); err == nil || !strings.Contains(err.Error(), "rank") {
		t.Fatalf("rank-deficient basis must fail, got %v", err)
	}
}

func TestPipelineAllEventsNoisy(t *testing.T) {
	pipe, _ := pipelineFixture(t)
	set := NewMeasurementSet("noisy", "p", []string{"p1", "p2", "p3"})
	for r, v := range [][]float64{{1, 2, 3}, {9, 1, 7}} {
		if err := set.Add("E", Measurement{Rep: r, Vector: v}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pipe.Analyze(set); err == nil {
		t.Fatalf("pipeline must report when nothing survives filtering")
	}
}

func TestPipelineSurvivesNaNMeasurements(t *testing.T) {
	// A glitched counter returning NaN must not crash the pipeline; the
	// event is unusable and must not be selected.
	pipe, set := pipelineFixture(t)
	nan := math.NaN()
	for r := 0; r < 2; r++ {
		if err := set.Add("BROKEN", Measurement{Rep: r, Vector: []float64{nan, 1, 2}}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := pipe.Analyze(set)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range res.SelectedEvents {
		if name == "BROKEN" {
			t.Fatalf("NaN event selected")
		}
	}
	// The clean events still define metrics.
	def, err := res.DefineMetric(Signature{Name: "I1 metric", Coeffs: []float64{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(def.BackwardError) {
		t.Fatalf("NaN leaked into the metric definition")
	}
}

func TestPipelineSingleRepetition(t *testing.T) {
	// One repetition: no variability information, everything passes the
	// noise stage (variability is zero by definition).
	pipe, _ := pipelineFixture(t)
	set := NewMeasurementSet("single", "p", []string{"p1", "p2", "p3"})
	if err := set.Add("PURE_1", Measurement{Vector: []float64{10, 20, 0}}); err != nil {
		t.Fatal(err)
	}
	if err := set.Add("PURE_2", Measurement{Vector: []float64{0, 0, 30}}); err != nil {
		t.Fatal(err)
	}
	res, err := pipe.Analyze(set)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SelectedEvents) != 2 {
		t.Fatalf("selected = %v", res.SelectedEvents)
	}
}

func TestPipelineDefineMetricsBadSignature(t *testing.T) {
	pipe, set := pipelineFixture(t)
	res, err := pipe.Analyze(set)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.DefineMetrics([]Signature{{Name: "bad", Coeffs: []float64{1}}}); err == nil {
		t.Fatalf("bad signature must fail")
	}
}

func TestFormatHelpersCoverResult(t *testing.T) {
	pipe, set := pipelineFixture(t)
	res, err := pipe.Analyze(set)
	if err != nil {
		t.Fatal(err)
	}
	if s := FormatSelection(res); !strings.Contains(s, "PURE_1") {
		t.Fatalf("selection rendering missing events: %q", s)
	}
	if s := FormatNoiseSummary(res.Noise); !strings.Contains(s, "discarded") {
		t.Fatalf("noise summary malformed: %q", s)
	}
	defs, err := res.DefineMetrics([]Signature{{Name: "m", Coeffs: []float64{1, 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if s := FormatMetricTable("t", defs); !strings.Contains(s, "PURE_1") {
		t.Fatalf("metric table malformed: %q", s)
	}
	if s := FormatSignatureTable("t", []string{"I1", "I2"}, []Signature{{Name: "m", Coeffs: []float64{1, -1}}}); !strings.Contains(s, "(1,-1)") {
		t.Fatalf("signature table malformed: %q", s)
	}
}
