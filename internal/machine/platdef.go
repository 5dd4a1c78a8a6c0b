package machine

import (
	"fmt"
	"sort"

	"github.com/perfmetrics/eventlens/internal/platdef"
)

// This file is the bridge between the pure-data platform definitions
// (internal/platdef) and live simulated platforms: FromDef loads a
// definition, ExportDef returns one. A catalog holds its definition's events
// unchanged, so the two are exact inverses — the canonical bytes of
// ExportDef(FromDef(d)) are d's — which is how the committed .pdef files
// are proven to load without loss.

// FromDef builds a live platform from a validated definition whose terms
// name only ground-truth stat keys a workload simulator can populate. The
// platform's catalog shares the definition's events, which must not be
// modified afterwards.
func FromDef(def *platdef.Platform) (*Platform, error) {
	if err := def.Validate(); err != nil {
		return nil, err
	}
	known := make(map[string]bool)
	for _, k := range KeyUniverse() {
		known[k] = true
	}
	for _, e := range def.Events {
		for _, t := range e.Respond {
			if !known[t.Key] {
				return nil, fmt.Errorf("machine: platform %q event %q responds to unknown stat key %q", def.Name, e.Name, t.Key)
			}
		}
		for _, t := range e.Doc {
			if !known[t.Key] {
				return nil, fmt.Errorf("machine: platform %q event %q documents unknown stat key %q", def.Name, e.Name, t.Key)
			}
		}
	}
	cat, err := NewCatalog(def.Events)
	if err != nil {
		return nil, err
	}
	p := &Platform{
		Name:     def.Name,
		Class:    def.Class,
		Catalog:  cat,
		Counters: def.Counters,
	}
	if len(def.Constraints) > 0 {
		p.Constraints = make(map[string]CounterConstraint, len(def.Constraints))
		for _, c := range def.Constraints {
			cc := CounterConstraint{Fixed: c.Fixed}
			if len(c.Allowed) > 0 {
				cc.Allowed = append([]int(nil), c.Allowed...)
			}
			p.Constraints[c.Event] = cc
		}
	}
	return p, nil
}

// ExportDef returns a platform's pure-data definition: its counter limits
// and constraints plus a copy of the catalog's event list. The events'
// term lists are shared with the catalog and must be treated as read-only.
func ExportDef(p *Platform) (*platdef.Platform, error) {
	def := &platdef.Platform{
		Name:     p.Name,
		Class:    p.Class,
		Counters: p.Counters,
		Events:   append([]platdef.Event(nil), p.Catalog.Events()...),
	}
	conEvents := make([]string, 0, len(p.Constraints))
	for event := range p.Constraints {
		conEvents = append(conEvents, event)
	}
	sort.Strings(conEvents)
	for _, event := range conEvents {
		cc := p.Constraints[event]
		c := platdef.Constraint{Event: event, Fixed: cc.Fixed}
		if len(cc.Allowed) > 0 {
			c.Allowed = append([]int(nil), cc.Allowed...)
			sort.Ints(c.Allowed)
		}
		def.Constraints = append(def.Constraints, c)
	}
	if err := def.Validate(); err != nil {
		return nil, fmt.Errorf("machine: exported definition of %s invalid: %w", p.Name, err)
	}
	return def, nil
}
