package core

import (
	"fmt"
	"math"
	"strings"

	"github.com/perfmetrics/eventlens/internal/mat"
)

// Term is one scaled raw event in a metric definition.
type Term struct {
	Event string  `json:"event"`
	Coeff float64 `json:"coeff"`
}

// MetricDefinition is a high-level metric composed from raw events
// (Section VI): the least-squares solution of Xhat * y = s together with its
// backward-error fitness.
type MetricDefinition struct {
	// Metric is the signature name.
	Metric string `json:"metric"`
	// Terms holds one entry per selected event, in selection order,
	// including near-zero coefficients (they are diagnostic: an all-tiny
	// combination with error ~1 means the metric is not composable).
	Terms []Term `json:"terms"`
	// BackwardError is ||Xhat*y - s|| / (||Xhat||*||y|| + ||s||), Eq. 5.
	BackwardError float64 `json:"backward_error"`
	// Residual is ||Xhat*y - s||_2.
	Residual float64 `json:"residual"`
}

// DefineMetric solves Xhat * y = s for one signature. Xhat's columns
// correspond to eventNames; the signature must be expressed in the same
// basis coordinates as Xhat's rows. A signature whose solution or fitness
// overflows (a coefficient, the backward error or the residual is not
// finite) has no definition and is an error: such a definition could be
// neither compared with a bound nor rendered as JSON.
func DefineMetric(xhat *mat.Dense, eventNames []string, sig Signature) (*MetricDefinition, error) {
	rows, cols := xhat.Dims()
	if cols != len(eventNames) {
		return nil, fmt.Errorf("core: Xhat has %d columns, %d event names", cols, len(eventNames))
	}
	if cols == 0 {
		return nil, fmt.Errorf("core: no events selected; cannot define %q", sig.Name)
	}
	if err := sig.CheckDim(rows); err != nil {
		return nil, err
	}
	res, err := mat.LeastSquares(xhat, sig.Coeffs)
	if err != nil {
		return nil, fmt.Errorf("core: defining %q: %w", sig.Name, err)
	}
	for i, x := range res.X {
		if !finite(x) {
			return nil, fmt.Errorf("core: defining %q: the coefficient of %s is %g", sig.Name, eventNames[i], x)
		}
	}
	if !finite(res.BackwardError) || !finite(res.Residual) {
		return nil, fmt.Errorf("core: defining %q: backward error %g, residual %g", sig.Name, res.BackwardError, res.Residual)
	}
	def := &MetricDefinition{
		Metric:        sig.Name,
		BackwardError: res.BackwardError,
		Residual:      res.Residual,
	}
	for i, name := range eventNames {
		def.Terms = append(def.Terms, Term{Event: name, Coeff: res.X[i]})
	}
	return def, nil
}

// finite reports whether x is neither NaN nor ±Inf.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// ComposableThreshold is the backward-error bound under which a metric
// counts as composable (Eq. 5): the bound analyses, presets, the serving
// tier and the cross-platform matrix apply unless a request overrides it.
const ComposableThreshold = 1e-6

// Composable reports whether the definition's fitness is below the given
// backward-error threshold — the paper's criterion for "this metric can be
// composed from raw events on this architecture".
func (d *MetricDefinition) Composable(maxBackwardError float64) bool {
	return d.BackwardError <= maxBackwardError
}

// Rounded returns a copy with each coefficient snapped to the nearest
// integer when it lies within tol of it (Section VI-D: cache-metric
// coefficients land within a couple percent of 0 or 1 and rounding them
// recovers the exact combination). A coefficient rounded to zero is +0,
// whatever its sign was. Coefficients farther than tol from any integer are
// kept as-is.
func (d *MetricDefinition) Rounded(tol float64) *MetricDefinition {
	out := &MetricDefinition{
		Metric:        d.Metric,
		BackwardError: d.BackwardError,
		Residual:      d.Residual,
	}
	for _, t := range d.Terms {
		n := math.Round(t.Coeff)
		c := t.Coeff
		if math.Abs(t.Coeff-n) <= tol {
			c = n
			if mat.IsZero(c) {
				c = 0 // math.Round(-0.0004) is -0, which reports print as "-0"
			}
		}
		out.Terms = append(out.Terms, Term{Event: t.Event, Coeff: c})
	}
	return out
}

// NonZeroTerms returns the terms with non-zero coefficients.
func (d *MetricDefinition) NonZeroTerms() []Term {
	var out []Term
	for _, t := range d.Terms {
		if !mat.IsZero(t.Coeff) {
			out = append(out, t)
		}
	}
	return out
}

// String renders the definition in the style of the paper's Tables V-VIII:
// one "coeff x EVENT" line per term plus the error.
func (d *MetricDefinition) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", d.Metric)
	for i, t := range d.Terms {
		sep := "  "
		if i > 0 {
			sep = "+ "
			if t.Coeff < 0 {
				sep = "- "
			}
		}
		c := t.Coeff
		if i > 0 && c < 0 {
			c = -c
		}
		if mat.IsZero(c) {
			c = 0 // normalize negative zero for display
		}
		fmt.Fprintf(&b, "  %s%.6g x %s\n", sep, c, t.Event)
	}
	fmt.Fprintf(&b, "  error: %.3g\n", d.BackwardError)
	return b.String()
}

// Combine evaluates the metric definition against raw measurement vectors in
// point space: sum over terms of coeff * measurements[event]. This is what
// the paper's Figure 3 plots against the expanded signature. Terms with an
// exactly-zero coefficient are skipped, so rounded definitions only need
// measurements for the events they actually reference.
func (d *MetricDefinition) Combine(measurements map[string][]float64) ([]float64, error) {
	var out []float64
	nonZero := d.NonZeroTerms()
	if len(nonZero) == 0 {
		return nil, fmt.Errorf("core: metric %q has no non-zero terms to combine", d.Metric)
	}
	for _, t := range nonZero {
		m, ok := measurements[t.Event]
		if !ok {
			return nil, fmt.Errorf("core: no measurements for %q", t.Event)
		}
		if out == nil {
			out = make([]float64, len(m))
		}
		if len(m) != len(out) {
			return nil, fmt.Errorf("core: measurement length mismatch for %q", t.Event)
		}
		mat.Axpy(t.Coeff, m, out)
	}
	return out, nil
}
