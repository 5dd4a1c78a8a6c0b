package machine

import (
	"fmt"

	"github.com/perfmetrics/eventlens/internal/platdef"
)

// FromDef validates a definition, checks that its terms name only
// ground-truth stat keys a workload simulator can populate, and builds a
// live platform over it. The platform holds the definition itself, which
// must not be modified afterwards. A Registry builds one platform per
// definition and keeps it; FromDef builds a new one on every call.
func FromDef(def *platdef.Platform) (*Platform, error) {
	if err := def.Validate(); err != nil {
		return nil, err
	}
	if err := checkKeys(def); err != nil {
		return nil, fmt.Errorf("machine: %v", err)
	}
	return newPlatform(def), nil
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
