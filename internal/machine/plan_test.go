package machine

import (
	"runtime"
	"slices"
	"testing"

	"github.com/perfmetrics/eventlens/internal/fault"
	"github.com/perfmetrics/eventlens/internal/par"
)

// TestPlanSlotsPlaceEveryEvent checks every built-in platform's collection
// plan: its names are the catalog's, its index groups name the events of
// Platform.Groups over them, group by group, and each event's slot points
// at the event's catalog index in its group. Plain schedules keep no slot
// table; spr-sim's constraint-aware one must.
func TestPlanSlotsPlaceEveryEvent(t *testing.T) {
	reg, err := NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range reg.Names() {
		p, err := reg.Platform(name)
		if err != nil {
			t.Fatal(err)
		}
		plan := p.Plan()
		if !slices.Equal(plan.Names, p.Names()) {
			t.Fatalf("%s: plan names differ from the catalog's", name)
		}
		groups := p.Groups(p.Names())
		if len(plan.Groups) != len(groups) {
			t.Fatalf("%s: %d plan groups, Platform.Groups makes %d", name, len(plan.Groups), len(groups))
		}
		for gi, group := range plan.Groups {
			names := make([]string, len(group))
			for k, i := range group {
				names[k] = p.Events[i].Name
			}
			if !slices.Equal(names, groups[gi]) {
				t.Fatalf("%s: plan group %d holds %v, Platform.Groups %v", name, gi, names, groups[gi])
			}
		}
		for i, event := range plan.Names {
			if s := plan.Slot(i); plan.Groups[s.Group][s.Index] != int32(i) {
				t.Fatalf("%s: slot %+v of %s holds %s", name, s, event, p.Events[plan.Groups[s.Group][s.Index]].Name)
			}
		}
		if len(p.Constraints) == 0 && plan.slots != nil {
			t.Errorf("%s: an unconstrained schedule keeps a slot table", name)
		}
		if name == "spr-sim" && plan.slots == nil {
			t.Errorf("%s: the constraint-aware schedule keeps no slot table", name)
		}
	}
}

// TestRegistryPlatformIsShared checks that a registry keeps one live
// platform, and builds one plan, per definition: every spelling of a
// platform, on every call, from any number of goroutines at once, gets one
// platform and one plan, and a fault-injecting copy shares the plan.
func TestRegistryPlatformIsShared(t *testing.T) {
	reg, err := NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	platforms := make([]*Platform, 8)
	plans := make([]*Plan, len(platforms))
	par.For(len(platforms), len(platforms), func(i int) {
		platforms[i], _ = reg.Platform([]string{"spr", "spr-sim"}[i%2])
		if platforms[i] != nil {
			plans[i] = platforms[i].Plan()
		}
	})
	a, err1 := reg.Platform("spr")
	b, err2 := reg.Platform("spr-sim")
	if err1 != nil || err2 != nil || a != b {
		t.Fatalf("Platform(spr) = %p, %v; Platform(spr-sim) = %p, %v; want one platform", a, err1, b, err2)
	}
	for i := range platforms {
		if platforms[i] != a || plans[i] != a.Plan() {
			t.Fatalf("concurrent call %d got platform %p and plan %p, want %p and %p", i, platforms[i], plans[i], a, a.Plan())
		}
	}
	if loadgen, err := reg.New("spr"); err != nil || loadgen != a {
		t.Fatalf("New(spr) = %p, %v; want the registry's platform %p", loadgen, err, a)
	}
	if c := a.WithInjector(fault.NewPlan(fault.Spec{Seed: 7})); c.Plan() != a.Plan() || c == a {
		t.Fatal("a fault-injecting copy does not share its platform's plan")
	}
	if z, _ := reg.Platform("zen4"); z == a || z.Plan() == a.Plan() {
		t.Fatal("zen4 and spr share a platform or a plan")
	}
	if _, err := reg.Platform("nope"); err == nil {
		t.Fatal("Platform(nope) should fail")
	}
}

// TestRegistryKeepsNoNameIndex bounds the heap a registry keeps beside the
// built-in definitions (which every registry of a process shares) once
// every built-in platform's plan is built: at most 36 B per catalog event.
// A plan keeps each event's name, its catalog index in the schedule and,
// for a constraint-aware schedule, its slot; that is about 26 B per event.
// A map from event name to catalog index in each platform, as live
// platforms once kept, adds about 46 B per event.
func TestRegistryKeepsNoNameIndex(t *testing.T) {
	// Parse the built-ins first: their definitions are not the registry's.
	if _, err := NewRegistry(); err != nil {
		t.Fatal(err)
	}
	const copies, bound = 8, 36.0
	events := 0
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	regs := make([]*Registry, copies)
	for i := range regs {
		reg, err := NewRegistry()
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range reg.Names() {
			p, err := reg.Platform(name)
			if err != nil {
				t.Fatal(err)
			}
			p.Plan()
			if i == 0 {
				events += len(p.Events)
			}
		}
		regs[i] = reg
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(regs)
	perEvent := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / copies / float64(events)
	t.Logf("a registry with every plan built keeps %.1f B per catalog event (%d events)", perEvent, events)
	if perEvent > bound {
		t.Errorf("a registry with every plan built keeps %.1f B per catalog event, more than %.0f", perEvent, bound)
	}
}
