package machine

// Plan is a platform's collection plan: its events in catalog order, the
// counter schedule that multiplexes them (Groups) and each event's slot in
// that schedule (Slot). It depends on nothing but the definition, so its
// platform builds it once, on first use (Platform.Plan), and every
// collection on that platform shares it; it is read-only.
type Plan struct {
	// Names lists the events in catalog order.
	Names []string
	// Groups is the counter schedule over Names (Platform.Groups), each
	// event as its catalog index: IdealCounts and MeasureGroup read the
	// platform's Events in place.
	Groups [][]int32
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

// newPlan builds a platform's collection plan.
func newPlan(p *Platform) *Plan {
	names := p.Names()
	// Every name is the catalog's own, so resolving them cannot fail.
	groups, _ := p.indexGroups(p.Groups(names))
	plan := &Plan{Names: names, Groups: groups, counters: p.Counters}
	slots := make([]Slot, len(names))
	plain := true
	for gi, group := range groups {
		for k, i := range group {
			slots[i] = Slot{int32(gi), int32(k)}
			plain = plain && slots[i] == plan.chunk(int(i))
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
