package machine

import (
	"slices"
	"testing"

	"github.com/perfmetrics/eventlens/internal/par"
)

// TestPlanSlotsPlaceEveryEvent checks every built-in platform's collection
// plan: its names are the catalog's, its groups are Platform.Groups over
// them, and each event's slot points at the event in its group. Plain
// schedules keep no slot table; spr-sim's constraint-aware one must.
func TestPlanSlotsPlaceEveryEvent(t *testing.T) {
	reg, err := NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range reg.Names() {
		p, err := reg.New(name)
		if err != nil {
			t.Fatal(err)
		}
		plan := NewPlan(p)
		if !slices.Equal(plan.Names, p.Names()) {
			t.Fatalf("%s: plan names differ from the catalog's", name)
		}
		if !slices.EqualFunc(plan.Groups, p.Groups(p.Names()), slices.Equal) {
			t.Fatalf("%s: plan groups differ from Platform.Groups", name)
		}
		for i, event := range plan.Names {
			if s := plan.Slot(i); plan.Groups[s.Group][s.Index] != event {
				t.Fatalf("%s: slot %+v of %s holds %s", name, s, event, plan.Groups[s.Group][s.Index])
			}
		}
		if len(p.constraints) == 0 && plan.slots != nil {
			t.Errorf("%s: an unconstrained schedule keeps a slot table", name)
		}
		if name == "spr-sim" && plan.slots == nil {
			t.Errorf("%s: the constraint-aware schedule keeps no slot table", name)
		}
	}
}

// TestRegistryPlanIsShared checks that a registry builds each definition's
// plan once: every spelling of a platform, on every call, from any number
// of goroutines at once, gets one plan.
func TestRegistryPlanIsShared(t *testing.T) {
	reg, err := NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	plans := make([]*Plan, 8)
	par.For(len(plans), len(plans), func(i int) {
		plans[i], _ = reg.Plan([]string{"spr", "spr-sim"}[i%2])
	})
	a, err1 := reg.Plan("spr")
	b, err2 := reg.Plan("spr-sim")
	if err1 != nil || err2 != nil || a != b {
		t.Fatalf("Plan(spr) = %p, %v; Plan(spr-sim) = %p, %v; want one plan", a, err1, b, err2)
	}
	for i, p := range plans {
		if p != a {
			t.Fatalf("concurrent call %d got plan %p, want %p", i, p, a)
		}
	}
	if c, _ := reg.Plan("zen4"); c == a {
		t.Fatal("zen4 and spr share a plan")
	}
	if _, err := reg.Plan("nope"); err == nil {
		t.Fatal("Plan(nope) should fail")
	}
}
