package machine

import (
	"fmt"

	"github.com/perfmetrics/eventlens/internal/platdef"
)

// FromDef builds a live platform from a validated definition whose terms
// name only ground-truth stat keys a workload simulator can populate. The
// platform holds the definition itself, which must not be modified
// afterwards.
func FromDef(def *platdef.Platform) (*Platform, error) {
	if err := def.Validate(); err != nil {
		return nil, err
	}
	if err := checkKeys(def); err != nil {
		return nil, fmt.Errorf("machine: %v", err)
	}
	return index(def), nil
}

// checkKeys rejects a definition whose response or documentation terms name
// a stat key outside KeyUniverse, naming the platform, the event and the
// key.
func checkKeys(def *platdef.Platform) error {
	known := make(map[string]bool)
	for _, k := range KeyUniverse() {
		known[k] = true
	}
	for _, e := range def.Events {
		for _, t := range e.Respond {
			if !known[t.Key] {
				return fmt.Errorf("platform %q event %q responds to unknown stat key %q", def.Name, e.Name, t.Key)
			}
		}
		for _, t := range e.Doc {
			if !known[t.Key] {
				return fmt.Errorf("platform %q event %q documents unknown stat key %q", def.Name, e.Name, t.Key)
			}
		}
	}
	return nil
}

// index builds the live platform over a validated definition: the event
// index and the constraint map measurement reads.
func index(def *platdef.Platform) *Platform {
	p := &Platform{Platform: def, byName: make(map[string]int, len(def.Events))}
	for i, e := range def.Events {
		p.byName[e.Name] = i
	}
	if len(def.Constraints) > 0 {
		p.constraints = make(map[string]platdef.Constraint, len(def.Constraints))
		for _, c := range def.Constraints {
			p.constraints[c.Event] = c
		}
	}
	return p
}
