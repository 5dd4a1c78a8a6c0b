package core

import (
	"fmt"
	"strings"

	"github.com/perfmetrics/eventlens/internal/mat"
)

// FormatSignatureTable renders a signature table in the style of the paper's
// Tables I-IV: metric name and its coefficient vector over the basis
// symbols.
func FormatSignatureTable(title string, symbols []string, sigs []Signature) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "  basis: (%s)\n", strings.Join(symbols, ", "))
	for _, s := range sigs {
		parts := make([]string, len(s.Coeffs))
		for i, c := range s.Coeffs {
			parts[i] = trimFloat(c)
		}
		fmt.Fprintf(&b, "  %-32s (%s)\n", s.Name, strings.Join(parts, ","))
	}
	return b.String()
}

// FormatMetricTable renders metric definitions in the style of the paper's
// Tables V-VIII: each metric's raw-event combination and backward error.
func FormatMetricTable(title string, defs []*MetricDefinition) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for _, d := range defs {
		fmt.Fprintf(&b, "  %-32s error %.3g\n", d.Metric, d.BackwardError)
		for _, t := range d.Terms {
			fmt.Fprintf(&b, "      %+12.6g x %s\n", t.Coeff, t.Event)
		}
	}
	return b.String()
}

// FormatSelection renders the specialized-QRCP outcome: the ordered list of
// selected events with their pivot scores.
func FormatSelection(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "selected %d independent events (of %d candidates):\n",
		len(r.SelectedEvents), len(r.Projection.Order))
	for i, name := range r.SelectedEvents {
		score := 0.0
		if i < len(r.QR.Scores) {
			score = r.QR.Scores[i]
		}
		fmt.Fprintf(&b, "  %2d. %-48s score %.3g\n", i+1, name, score)
	}
	return b.String()
}

// FormatNoiseSummary renders the Section IV outcome.
func FormatNoiseSummary(r *NoiseReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "noise analysis (tau=%.0e): %d measured, %d all-zero discarded, %d noisy filtered, %d kept\n",
		r.Tau, len(r.Variabilities)+len(r.Discarded), len(r.Discarded), len(r.Filtered), len(r.KeptOrder))
	return b.String()
}

// FormatAnalysisReport renders the standard end-to-end report for one
// analysis: the noise summary, the projection line, the selection and the
// metric-definition table. cmd/analyze prints this to stdout and the
// eventlensd server returns it in /v1/analyze responses, so the two surfaces
// stay byte-identical by construction.
func FormatAnalysisReport(r *Result, projectionTol float64, metricTable string, defs []*MetricDefinition) string {
	var b strings.Builder
	b.WriteString(FormatNoiseSummary(r.Noise))
	if len(r.Unmeasured) > 0 {
		// Only fault-injected runs produce unmeasured events; clean runs keep
		// the report byte-identical to earlier releases.
		fmt.Fprintf(&b, "faults: %d events unmeasured after retries: %s\n",
			len(r.Unmeasured), strings.Join(r.Unmeasured, ", "))
	}
	fmt.Fprintf(&b, "projection: %d events representable, %d dropped (tol %.0e)\n",
		len(r.Projection.Order), len(r.Projection.Dropped), projectionTol)
	b.WriteString(FormatSelection(r))
	b.WriteString("\n")
	b.WriteString(FormatMetricTable(fmt.Sprintf("metric definitions (paper Table %s):", metricTable), defs))
	return b.String()
}

// trimFloat formats a coefficient compactly (integers without decimals).
func trimFloat(c float64) string {
	if mat.ExactEq(c, float64(int64(c))) {
		return fmt.Sprintf("%d", int64(c))
	}
	return fmt.Sprintf("%g", c)
}
