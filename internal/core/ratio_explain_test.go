package core

import (
	"strings"
	"testing"

	"github.com/perfmetrics/eventlens/internal/mat"
)

func branchDefs(t *testing.T) (misp, cond *MetricDefinition) {
	t.Helper()
	xhat := mat.FromColumns([][]float64{
		{0, 0, 0, 0, 1}, // MISP
		{0, 1, 0, 0, 0}, // COND
	})
	names := []string{"BR_MISP_RETIRED", "BR_INST_RETIRED:COND"}
	var err error
	misp, err = DefineMetric(xhat, names, Signature{Name: "Mispredicted Branches.", Coeffs: []float64{0, 0, 0, 0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	cond, err = DefineMetric(xhat, names, Signature{Name: "Conditional Branches Retired.", Coeffs: []float64{0, 1, 0, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	return misp.Rounded(0.05), cond.Rounded(0.05)
}

func TestRatioMetricEvents(t *testing.T) {
	misp, cond := branchDefs(t)
	ratio, _ := NewRatioMetric("r", misp, cond)
	events := ratio.Events()
	if len(events) != 2 {
		t.Fatalf("events = %v", events)
	}
}

func TestRatioMetricValidation(t *testing.T) {
	misp, _ := branchDefs(t)
	if _, err := NewRatioMetric("r", misp, nil); err == nil {
		t.Fatalf("nil denominator should fail")
	}
	empty := &MetricDefinition{Metric: "none", Terms: []Term{{Event: "X", Coeff: 0}}}
	if _, err := NewRatioMetric("r", misp, empty); err == nil {
		t.Fatalf("empty side should fail")
	}
}

func TestRatioMetricString(t *testing.T) {
	misp, cond := branchDefs(t)
	ratio, _ := NewRatioMetric("Branch Misprediction Ratio", misp, cond)
	s := ratio.String()
	if !strings.Contains(s, "BR_MISP_RETIRED") || !strings.Contains(s, "/") {
		t.Fatalf("rendering wrong: %q", s)
	}
}

func TestExplainEventExact(t *testing.T) {
	b := paperToyBasis(t)
	// An event measuring scalar instructions plus 2x FMA instructions.
	m := []float64{24, 48, 96, 24, 48, 96}
	e, err := ExplainEvent(b, "COMBINED", m, 5e-4, 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	if e.Verdict != "exact" {
		t.Fatalf("verdict = %q (residual %v)", e.Verdict, e.RelResidual)
	}
	if len(e.Terms) != 2 {
		t.Fatalf("terms = %v", e.Terms)
	}
	// Largest magnitude first: the 2x FMA contribution leads.
	if e.Terms[0].Event != "D256_FMA" || e.Terms[0].Coeff != 2 {
		t.Fatalf("leading term = %+v", e.Terms[0])
	}
	if !strings.Contains(e.String(), "2 x D256_FMA") {
		t.Fatalf("rendering: %s", e)
	}
}

func TestExplainEventUnrepresentable(t *testing.T) {
	b := paperToyBasis(t)
	e, err := ExplainEvent(b, "CONST", []float64{5, 5, 5, 5, 5, 5}, 5e-4, 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	if e.Verdict != "unrepresentable" {
		t.Fatalf("verdict = %q", e.Verdict)
	}
	if !strings.Contains(e.String(), "unrepresentable") {
		t.Fatalf("rendering: %s", e)
	}
}

func TestExplainEventNoisyApproximate(t *testing.T) {
	b := paperToyBasis(t)
	m := []float64{24.01, 47.99, 96.02, 0.01, 0, 0}
	e, err := ExplainEvent(b, "NOISY_SCAL", m, 5e-3, 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	if e.Verdict != "approximate" {
		t.Fatalf("verdict = %q (residual %v)", e.Verdict, e.RelResidual)
	}
	if len(e.Terms) != 1 || e.Terms[0].Event != "DSCAL" || e.Terms[0].Coeff != 1 {
		t.Fatalf("terms = %v", e.Terms)
	}
}

func TestExplainKept(t *testing.T) {
	b := paperToyBasis(t)
	noise := &NoiseReport{
		Kept: map[string][]float64{
			"SCAL_EV": {24, 48, 96, 0, 0, 0},
		},
		KeptOrder: []string{"SCAL_EV"},
	}
	out, err := ExplainKept(b, noise, 5e-4, 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	if out["SCAL_EV"] == nil || out["SCAL_EV"].Terms[0].Event != "DSCAL" {
		t.Fatalf("explanations = %v", out)
	}
}
