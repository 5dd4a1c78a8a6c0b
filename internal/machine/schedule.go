package machine

import (
	"fmt"

	"github.com/perfmetrics/eventlens/internal/platdef"
)

// Real PMUs do not let every event go on every counter: architectural
// events live on dedicated fixed counters (INST_RETIRED, CPU_CLK_UNHALTED on
// Intel), and some programmable events are restricted to a subset of
// counters. This file implements a constraint-aware multiplexing scheduler
// on top of the simple Groups partition.

// ScheduledGroup is one multiplexing round: the events measured together
// and the counter each occupies.
type ScheduledGroup struct {
	// Events maps counter slots to event names. Fixed-counter events use
	// slots >= the platform's programmable counter count.
	Events map[int]string
}

// Schedule partitions events into multiplexing rounds honouring counter
// constraints: at most `programmable` programmable events per round, each on
// an allowed counter, and at most one user of each fixed counter per round.
// The scheduler is greedy first-fit, which is what perf-tool schedulers do
// in practice; it returns an error only if a single event is unschedulable
// outright (e.g. an empty Allowed list). An event without a constraint may
// use any programmable counter; a nil Allowed list means the same.
func Schedule(events []string, constraints map[string]platdef.Constraint, programmable int) ([]ScheduledGroup, error) {
	if programmable <= 0 {
		return nil, fmt.Errorf("machine: need at least one programmable counter")
	}
	var groups []ScheduledGroup
	place := func(name string) error {
		c, ok := constraints[name]
		if !ok {
			c = platdef.Constraint{Fixed: -1}
		}
		if c.Fixed < 0 && c.Allowed != nil && len(c.Allowed) == 0 {
			return fmt.Errorf("machine: event %q allows no counters", name)
		}
		for gi := range groups {
			if tryPlace(&groups[gi], name, c, programmable) {
				return nil
			}
		}
		g := ScheduledGroup{Events: make(map[int]string)}
		if !tryPlace(&g, name, c, programmable) {
			return fmt.Errorf("machine: event %q unschedulable even in an empty group", name)
		}
		groups = append(groups, g)
		return nil
	}
	for _, name := range events {
		if err := place(name); err != nil {
			return nil, err
		}
	}
	return groups, nil
}

// tryPlace attempts to put the event into the group, returning success.
func tryPlace(g *ScheduledGroup, name string, c platdef.Constraint, programmable int) bool {
	if c.Fixed >= 0 {
		slot := programmable + c.Fixed
		if _, used := g.Events[slot]; used {
			return false
		}
		g.Events[slot] = name
		return true
	}
	if c.Allowed == nil {
		for slot := 0; slot < programmable; slot++ {
			if _, used := g.Events[slot]; !used {
				g.Events[slot] = name
				return true
			}
		}
		return false
	}
	for _, slot := range c.Allowed {
		if slot < 0 || slot >= programmable {
			continue
		}
		if _, used := g.Events[slot]; !used {
			g.Events[slot] = name
			return true
		}
	}
	return false
}
