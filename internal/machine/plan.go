package machine

// Plan is a platform definition's collection plan: its events in catalog
// order, the counter schedule that multiplexes them (Groups), and each
// event's slot in that schedule (Slot). It depends on nothing but the
// definition, so a Registry builds it once per definition, on first use,
// and every collection on that definition shares it; it is read-only.
type Plan struct {
	// Names lists the events in catalog order.
	Names []string
	// Groups is the counter schedule over Names (Platform.Groups).
	Groups [][]string
	// counters is the chunk size of a plain schedule, and slots each
	// event's slot when the schedule is not plain chunks of Names (a
	// constraint-aware one); nil otherwise.
	counters int
	slots    []Slot
}

// Slot places an event in a counter schedule: its group, and its index
// within the group's events (and so within each vector list a read of the
// group returns).
type Slot struct {
	Group, Index int32
}

// NewPlan builds a platform's collection plan. Callers holding a Registry
// use its shared plan (Registry.Plan) instead.
func NewPlan(p *Platform) *Plan {
	names := p.Names()
	groups := p.Groups(names)
	plan := &Plan{Names: names, Groups: groups, counters: p.Counters}
	slots := make([]Slot, len(names))
	plain := true
	for gi, group := range groups {
		for k, name := range group {
			i := p.byName[name]
			slots[i] = Slot{int32(gi), int32(k)}
			plain = plain && slots[i] == plan.chunk(i)
		}
	}
	if !plain {
		plan.slots = slots
	}
	return plan
}

// Slot returns the slot of the i-th event of Names.
func (p *Plan) Slot(i int) Slot {
	if p.slots == nil {
		return p.chunk(i)
	}
	return p.slots[i]
}

// chunk is the i-th event's slot in a plain schedule.
func (p *Plan) chunk(i int) Slot {
	return Slot{int32(i / p.counters), int32(i % p.counters)}
}
