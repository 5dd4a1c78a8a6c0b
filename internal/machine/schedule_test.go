package machine

import (
	"fmt"
	"testing"
	"testing/quick"

	"github.com/perfmetrics/eventlens/internal/platdef"
)

func TestScheduleUnconstrainedPacksFully(t *testing.T) {
	events := []string{"a", "b", "c", "d", "e"}
	groups, err := Schedule(events, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 3 {
		t.Fatalf("rounds = %d want 3", len(groups))
	}
	total := 0
	for _, g := range groups {
		if len(g.Events) > 2 {
			t.Fatalf("group over capacity: %v", g.Events)
		}
		total += len(g.Events)
	}
	if total != len(events) {
		t.Fatalf("scheduled %d of %d events", total, len(events))
	}
}

func TestScheduleFixedCountersShareRounds(t *testing.T) {
	// Two fixed-counter events on different fixed counters plus two
	// programmable events fit one round with two programmable counters.
	constraints := map[string]platdef.Constraint{
		"INST_RETIRED": {Fixed: 0},
		"CPU_CLK":      {Fixed: 1},
	}
	groups, err := Schedule([]string{"INST_RETIRED", "CPU_CLK", "p1", "p2"}, constraints, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 1 {
		t.Fatalf("rounds = %d want 1: %v", len(groups), groups)
	}
}

func TestScheduleFixedCounterConflictSplits(t *testing.T) {
	// Two events needing the same fixed counter cannot share a round.
	constraints := map[string]platdef.Constraint{
		"f1": {Fixed: 0},
		"f2": {Fixed: 0},
	}
	groups, err := Schedule([]string{"f1", "f2"}, constraints, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 {
		t.Fatalf("conflicting fixed events must split: %d rounds", len(groups))
	}
}

func TestScheduleRestrictedCounters(t *testing.T) {
	// Both events only work on counter 0: they must serialize even though
	// counter 1 is free.
	constraints := map[string]platdef.Constraint{
		"r1": {Fixed: -1, Allowed: []int{0}},
		"r2": {Fixed: -1, Allowed: []int{0}},
	}
	groups, err := Schedule([]string{"r1", "r2"}, constraints, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 {
		t.Fatalf("restricted events must serialize: %d rounds", len(groups))
	}
	for _, g := range groups {
		for slot, name := range g.Events {
			if slot != 0 {
				t.Fatalf("%s placed on counter %d, only 0 allowed", name, slot)
			}
		}
	}
}

func TestScheduleMixedConstraints(t *testing.T) {
	constraints := map[string]platdef.Constraint{
		"fixed":      {Fixed: 0},
		"restricted": {Fixed: -1, Allowed: []int{1}},
	}
	groups, err := Schedule([]string{"fixed", "restricted", "free1", "free2"}, constraints, 2)
	if err != nil {
		t.Fatal(err)
	}
	// fixed -> fixed slot; restricted -> counter 1; free1 -> counter 0;
	// free2 -> second round.
	if len(groups) != 2 {
		t.Fatalf("rounds = %d want 2: %v", len(groups), groups)
	}
}

func TestScheduleErrors(t *testing.T) {
	if _, err := Schedule([]string{"a"}, nil, 0); err == nil {
		t.Fatalf("zero programmable counters should fail")
	}
	constraints := map[string]platdef.Constraint{
		"bad": {Fixed: -1, Allowed: []int{}},
	}
	if _, err := Schedule([]string{"bad"}, constraints, 2); err == nil {
		t.Fatalf("event with no allowed counters should fail")
	}
	constraints2 := map[string]platdef.Constraint{
		"oob": {Fixed: -1, Allowed: []int{9}},
	}
	if _, err := Schedule([]string{"oob"}, constraints2, 2); err == nil {
		t.Fatalf("out-of-range allowed counter should fail")
	}
}

// Property: every event appears exactly once across all rounds, and no
// group exceeds its counter budget.
func TestScheduleCompletenessProperty(t *testing.T) {
	f := func(nEvents, counters uint8) bool {
		n := int(nEvents%40) + 1
		c := int(counters%6) + 1
		events := make([]string, n)
		constraints := map[string]platdef.Constraint{}
		for i := range events {
			events[i] = fmt.Sprintf("e%d", i)
			switch i % 3 {
			case 1:
				constraints[events[i]] = platdef.Constraint{Fixed: i % 2}
			case 2:
				constraints[events[i]] = platdef.Constraint{Fixed: -1, Allowed: []int{i % c}}
			}
		}
		groups, err := Schedule(events, constraints, c)
		if err != nil {
			return false
		}
		seen := map[string]int{}
		for _, g := range groups {
			programmableUsed := 0
			for slot, name := range g.Events {
				seen[name]++
				if slot < c {
					programmableUsed++
				}
			}
			if programmableUsed > c {
				return false
			}
		}
		for _, name := range events {
			if seen[name] != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
