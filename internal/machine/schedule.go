package machine

import "fmt"

// Real PMUs do not let every event go on every counter: architectural
// events live on dedicated fixed counters (INST_RETIRED, CPU_CLK_UNHALTED on
// Intel), and some programmable events are restricted to a subset of
// counters. This file implements a constraint-aware multiplexing scheduler
// on top of the simple Groups partition.

// CounterConstraint describes where an event may be programmed.
type CounterConstraint struct {
	// Fixed is the index of the dedicated fixed counter this event uses,
	// or -1 if the event goes on programmable counters.
	Fixed int
	// Allowed restricts the programmable counters the event may use
	// (nil = any). Ignored for fixed-counter events.
	Allowed []int
}

// AnyCounter is the unconstrained default.
var AnyCounter = CounterConstraint{Fixed: -1}

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
// outright (e.g. an empty Allowed list).
func Schedule(events []string, constraints map[string]CounterConstraint, programmable int) ([]ScheduledGroup, error) {
	if programmable <= 0 {
		return nil, fmt.Errorf("machine: need at least one programmable counter")
	}
	var groups []ScheduledGroup
	place := func(name string) error {
		c, ok := constraints[name]
		if !ok {
			c = AnyCounter
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
func tryPlace(g *ScheduledGroup, name string, c CounterConstraint, programmable int) bool {
	if c.Fixed >= 0 {
		slot := programmable + c.Fixed
		if _, used := g.Events[slot]; used {
			return false
		}
		g.Events[slot] = name
		return true
	}
	candidates := c.Allowed
	if candidates == nil {
		candidates = make([]int, programmable)
		for i := range candidates {
			candidates[i] = i
		}
	}
	for _, slot := range candidates {
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
