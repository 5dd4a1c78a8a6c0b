package suite

import (
	"context"
	"testing"

	"github.com/perfmetrics/eventlens/internal/cat"
	"github.com/perfmetrics/eventlens/internal/core"
	"github.com/perfmetrics/eventlens/internal/machine"
)

func cpuFlopsDefs(t *testing.T) []*core.MetricDefinition {
	t.Helper()
	b, err := ByName("cpu-flops")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	set, err := b.Collect(ctx, cat.RunConfig{Reps: 2, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.AnalyzeSet(ctx, set, b.Config)
	if err != nil {
		t.Fatal(err)
	}
	defs, err := res.DefineMetrics(b.Signatures)
	if err != nil {
		t.Fatal(err)
	}
	return defs
}

func TestPlanMeasurementCPUFlops(t *testing.T) {
	platform, err := machine.BuiltinPlatform("spr-sim")
	if err != nil {
		t.Fatal(err)
	}
	defs := cpuFlopsDefs(t)
	plan, err := PlanMeasurement(platform, defs, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	// All six FP metrics reference the same 8 FP_ARITH events, which fit
	// the 8 programmable counters in a single round.
	if len(plan.Events) != 8 {
		t.Fatalf("events = %v", plan.Events)
	}
	if len(plan.Groups) != 1 {
		t.Fatalf("rounds = %d want 1 (%v)", len(plan.Groups), plan.Groups)
	}
}

func TestPlanMeasurementCrossPlatformRejected(t *testing.T) {
	// SPR-derived metric definitions reference events Zen4 does not have.
	zen4, err := machine.BuiltinPlatform("zen4-sim")
	if err != nil {
		t.Fatal(err)
	}
	defs := cpuFlopsDefs(t)
	if _, err := PlanMeasurement(zen4, defs, 0.05); err == nil {
		t.Fatalf("cross-platform plan should fail")
	}
}

func TestPlanMeasurementEmpty(t *testing.T) {
	platform, err := machine.BuiltinPlatform("spr-sim")
	if err != nil {
		t.Fatal(err)
	}
	empty := []*core.MetricDefinition{{Metric: "none", Terms: []core.Term{{Event: "X", Coeff: 1e-12}}}}
	if _, err := PlanMeasurement(platform, empty, 0.05); err == nil {
		t.Fatalf("all-zero metrics should fail to plan")
	}
}
