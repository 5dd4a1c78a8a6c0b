package core

import (
	"fmt"
	"math"

	"github.com/perfmetrics/eventlens/internal/mat"
)

// RatioMetric is a quotient of two composed metrics — the natural extension
// of the paper's linear framework to the rate metrics performance tools
// report (miss ratios, misprediction rates). The numerator and denominator
// are each linear combinations of raw events, so a RatioMetric stays
// measurable on real hardware: read the union of events once, form both
// combinations, divide.
type RatioMetric struct {
	// Name is the ratio's label, e.g. "Branch Misprediction Ratio".
	Name string
	// Num and Den are the composed numerator and denominator.
	Num *MetricDefinition
	Den *MetricDefinition
}

// NewRatioMetric builds a ratio from two metric definitions.
func NewRatioMetric(name string, num, den *MetricDefinition) (*RatioMetric, error) {
	if num == nil || den == nil {
		return nil, fmt.Errorf("core: ratio %q needs both numerator and denominator", name)
	}
	if len(num.NonZeroTerms()) == 0 || len(den.NonZeroTerms()) == 0 {
		return nil, fmt.Errorf("core: ratio %q has an empty side (non-composable metric?)", name)
	}
	return &RatioMetric{Name: name, Num: num, Den: den}, nil
}

// Events returns the union of raw events the ratio needs, numerator first,
// without duplicates — the set a monitoring tool must program counters for.
func (r *RatioMetric) Events() []string {
	seen := map[string]bool{}
	var out []string
	for _, def := range []*MetricDefinition{r.Num, r.Den} {
		for _, t := range def.NonZeroTerms() {
			if !seen[t.Event] {
				seen[t.Event] = true
				out = append(out, t.Event)
			}
		}
	}
	return out
}

// String renders the ratio definition.
func (r *RatioMetric) String() string {
	return fmt.Sprintf("%s = (%s) / (%s)", r.Name,
		combinationString(r.Num), combinationString(r.Den))
}

// combinationString renders a definition's non-zero terms inline.
func combinationString(d *MetricDefinition) string {
	s := ""
	for i, t := range d.NonZeroTerms() {
		if i > 0 {
			if t.Coeff >= 0 {
				s += " + "
			} else {
				s += " - "
			}
		} else if t.Coeff < 0 {
			s += "-"
		}
		c := math.Abs(t.Coeff)
		if mat.ExactEq(c, 1) {
			s += t.Event
		} else {
			s += fmt.Sprintf("%g x %s", c, t.Event)
		}
	}
	return s
}
