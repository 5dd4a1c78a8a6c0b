package suite

import (
	"fmt"
	"sort"

	"github.com/perfmetrics/eventlens/internal/core"
	"github.com/perfmetrics/eventlens/internal/machine"
)

// MeasurementPlan describes how to measure a set of composed metrics on a
// platform: the union of raw events they need and the multiplexing rounds
// the platform's counters require for them.
type MeasurementPlan struct {
	// Events is the union of raw events, sorted.
	Events []string
	// Groups are the multiplexing rounds (constraint-aware when the
	// platform declares counter constraints).
	Groups [][]string
}

// PlanMeasurement computes the measurement plan for a set of metric
// definitions on a platform: which events to program and in how many rounds.
// Near-zero coefficients are dropped with roundTol first, so non-essential
// events do not consume counters. It errors if a referenced event does not
// exist on the platform — the signal that a metric definition was derived
// for different hardware.
func PlanMeasurement(p *machine.Platform, defs []*core.MetricDefinition, roundTol float64) (*MeasurementPlan, error) {
	seen := map[string]bool{}
	var events []string
	for _, def := range defs {
		for _, term := range def.Rounded(roundTol).NonZeroTerms() {
			if seen[term.Event] {
				continue
			}
			if _, ok := p.Lookup(term.Event); !ok {
				return nil, fmt.Errorf("suite: metric %q references %q, which %s does not expose",
					def.Metric, term.Event, p.Name)
			}
			seen[term.Event] = true
			events = append(events, term.Event)
		}
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("suite: no events to measure (all metrics empty after rounding)")
	}
	sort.Strings(events)
	return &MeasurementPlan{Events: events, Groups: p.Groups(events)}, nil
}
