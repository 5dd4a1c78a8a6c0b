package core

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/perfmetrics/eventlens/internal/mat"
)

// Explanation decodes what a raw event measures, in the vocabulary of an
// expectation basis — the event-to-concept mapping the paper's title
// promises, rendered for a human.
type Explanation struct {
	// Event is the raw event name.
	Event string `json:"event"`
	// Terms are the ideal-event contributions, largest magnitude first,
	// after rounding with the analysis alpha (tiny projection residue
	// vanishes).
	Terms []Term `json:"terms"`
	// RelResidual is how much of the measurement the basis cannot explain.
	RelResidual float64 `json:"rel_residual"`
	// Verdict is a one-line classification: "exact", "approximate" or
	// "unrepresentable".
	Verdict string `json:"verdict"`
}

// ExplainEvent projects one event's averaged measurement vector onto the
// basis and renders the result as ideal-event contributions. alpha controls
// coefficient rounding (use the analysis config's Alpha); relTol is the
// projection-residual threshold separating representable from
// unrepresentable events.
func ExplainEvent(b *Basis, event string, m []float64, alpha, relTol float64) (*Explanation, error) {
	projector, err := NewProjector(b)
	if err != nil {
		return nil, err
	}
	return explainWith(b, projector, event, m, alpha, relTol)
}

// explainWith explains one event against an already-factorized basis, so
// callers explaining many events (ExplainKept) pay for one factorization.
func explainWith(b *Basis, projector *Projector, event string, m []float64, alpha, relTol float64) (*Explanation, error) {
	p, err := projector.Project(event, m)
	if err != nil {
		return nil, err
	}
	e := &Explanation{Event: event, RelResidual: p.RelResidual}
	for i, c := range p.X {
		rounded := RoundToGrid(c, alpha)
		if mat.IsZero(rounded) {
			continue
		}
		e.Terms = append(e.Terms, Term{Event: b.Names[i], Coeff: rounded})
	}
	sort.SliceStable(e.Terms, func(i, j int) bool {
		return math.Abs(e.Terms[i].Coeff) > math.Abs(e.Terms[j].Coeff)
	})
	switch {
	case p.RelResidual > relTol:
		e.Verdict = "unrepresentable"
	case p.RelResidual > 1e-10:
		e.Verdict = "approximate"
	default:
		e.Verdict = "exact"
	}
	return e, nil
}

// ExplainKept explains every event that survived a noise report, keyed by
// name. The basis is factorized once and reused across events.
func ExplainKept(b *Basis, noise *NoiseReport, alpha, relTol float64) (map[string]*Explanation, error) {
	projector, err := NewProjector(b)
	if err != nil {
		return nil, err
	}
	out := make(map[string]*Explanation, len(noise.KeptOrder))
	for _, event := range noise.KeptOrder {
		e, err := explainWith(b, projector, event, noise.Kept[event], alpha, relTol)
		if err != nil {
			return nil, err
		}
		out[event] = e
	}
	return out, nil
}

// String renders e.g.
//
//	BR_INST_RETIRED:COND_NTAKEN = 1 x CR - 1 x T   (exact)
func (e *Explanation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s = ", e.Event)
	if len(e.Terms) == 0 {
		b.WriteString("(nothing this basis describes)")
	}
	for i, t := range e.Terms {
		c := t.Coeff
		if i > 0 {
			if c >= 0 {
				b.WriteString(" + ")
			} else {
				b.WriteString(" - ")
				c = -c
			}
		}
		fmt.Fprintf(&b, "%g x %s", c, t.Event)
	}
	fmt.Fprintf(&b, "   (%s", e.Verdict)
	if e.Verdict != "exact" {
		fmt.Fprintf(&b, ", residual %.2g", e.RelResidual)
	}
	b.WriteString(")")
	return b.String()
}
