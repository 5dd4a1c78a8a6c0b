// Package fault_test holds the end-to-end chaos suite: fault injection
// driven through the real benchmarks and the full analysis pipeline,
// asserting the three resilience invariants the subsystem promises:
//
//  1. Replay — the same seed produces a byte-identical fault schedule and a
//     byte-identical final report, at any worker count.
//  2. Recovery — transient fault rates within the retry budget leave the
//     output byte-identical to the fault-free run.
//  3. Degradation — unrecoverable faults surface as typed, coordinate-naming
//     errors or partial reports; nothing panics the caller.
package fault_test

import (
	"context"
	"strings"
	"testing"

	"github.com/perfmetrics/eventlens/internal/analysis"
	"github.com/perfmetrics/eventlens/internal/cat"
	"github.com/perfmetrics/eventlens/internal/fault"
	"github.com/perfmetrics/eventlens/internal/machine"
	"github.com/perfmetrics/eventlens/internal/suite"
)

// chaosReport runs one benchmark end to end under a fault spec and renders
// the full text report — the bytes the CLI prints and the daemon serves.
func chaosReport(t *testing.T, benchName, spec string, workers int) (string, error) {
	t.Helper()
	bench, err := suite.ByName(benchName)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := machine.NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	run := bench.DefaultRun
	run.Faults = spec
	a, err := analysis.Run(context.Background(), reg, analysis.Request{Benchmark: benchName, Run: &run}, workers)
	if err != nil {
		return "", err
	}
	return a.Report(), nil
}

func TestChaosSameSeedSameReport(t *testing.T) {
	// Invariant 1: replay. Two runs of one seed, and a serial vs parallel
	// run, must agree byte for byte — the schedule is a property of the
	// coordinates, not of scheduling.
	const spec = "seed=41,transient=0.25,slow=0.1,depth=2,retries=3"
	first, err := chaosReport(t, "branch", spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	again, err := chaosReport(t, "branch", spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Fatal("same seed, same workers: reports differ")
	}
	parallel, err := chaosReport(t, "branch", spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	if first != parallel {
		t.Fatal("workers=1 vs workers=4: chaos reports differ")
	}
}

func TestChaosRecoverableFaultsAreInvisible(t *testing.T) {
	// Invariant 2: recovery. Transient and slow faults within the retry
	// budget (retries >= depth, structurally guaranteed recovery) must
	// leave the report byte-identical to the fault-free run, serial and
	// parallel alike.
	for _, benchName := range []string{"cpu-flops", "branch"} {
		clean, err := chaosReport(t, benchName, "", 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			faulted, err := chaosReport(t, benchName, "seed=13,transient=0.3,slow=0.2,depth=2,retries=3", workers)
			if err != nil {
				t.Fatalf("%s workers=%d: recoverable chaos failed the run: %v", benchName, workers, err)
			}
			if faulted != clean {
				t.Fatalf("%s workers=%d: recoverable faults changed the output", benchName, workers)
			}
		}
	}
}

func TestChaosExhaustedRetriesYieldPartialReport(t *testing.T) {
	// Invariant 3a: graceful degradation. With no retry budget, transient
	// faults drop their groups; the analysis still completes and the report
	// names what went unmeasured.
	const spec = "seed=3,transient=0.2,retries=0"
	for _, workers := range []int{1, 4} {
		report, err := chaosReport(t, "cpu-flops", spec, workers)
		if err != nil {
			t.Fatalf("workers=%d: partial run failed outright: %v", workers, err)
		}
		if !strings.Contains(report, "faults:") {
			t.Fatalf("workers=%d: partial report missing the faults line:\n%s",
				workers, report[:200])
		}
	}
	// And the partial report replays too.
	a, errA := chaosReport(t, "cpu-flops", spec, 1)
	b, errB := chaosReport(t, "cpu-flops", spec, 4)
	if errA != nil || errB != nil {
		t.Fatalf("replay failed: %v / %v", errA, errB)
	}
	if a != b {
		t.Fatal("partial reports differ between worker counts")
	}
}

func TestChaosPanicsBecomeTypedErrors(t *testing.T) {
	// Invariant 3b: a worker panic never crosses the API boundary as a
	// panic — it arrives as an error naming the faulted coordinate.
	for _, workers := range []int{1, 4} {
		_, err := chaosReport(t, "branch", "seed=5,panic=1", workers)
		if err == nil {
			t.Fatalf("workers=%d: all-panic run succeeded", workers)
		}
		f, ok := fault.As(err)
		if !ok {
			t.Fatalf("workers=%d: error lost the fault: %v", workers, err)
		}
		if f.Kind != fault.Panic {
			t.Fatalf("workers=%d: wrong kind %s", workers, f.Kind)
		}
		if !strings.Contains(f.Coord.String(), "measure(") {
			t.Fatalf("workers=%d: fault does not name a measurement coordinate: %v", workers, f)
		}
	}
}

func TestChaosCorruptionIsCaughtByNoiseFilter(t *testing.T) {
	// Corrupted counter values (NaN/Inf/outliers) flow into the pipeline;
	// the analysis must either filter them (they look like extreme noise)
	// or fail cleanly — never crash, never hang.
	for _, workers := range []int{1, 4} {
		report, err := chaosReport(t, "cpu-flops", "seed=17,corrupt=0.1", workers)
		if err != nil {
			// A clean typed failure is acceptable; a panic would have
			// crashed the test binary before this line.
			continue
		}
		if report == "" {
			t.Fatalf("workers=%d: empty report", workers)
		}
	}
}

func TestChaosCacheKeyIncludesFaults(t *testing.T) {
	// A faulted run must never share a cache key with a clean one, while
	// spec spelling variants must collapse to one key.
	clean := cat.RunConfig{Reps: 5, Threads: 1}
	faulted := clean
	faulted.Faults = "seed=7,transient=0.1"
	if clean.String() == faulted.String() {
		t.Fatal("faulted config renders like the clean one")
	}
	respelled := clean
	respelled.Faults = "transient=0.1,seed=7"
	if faulted.String() != respelled.String() {
		t.Fatalf("equivalent specs split the cache: %q vs %q", faulted, respelled)
	}
	if clean.String() != (cat.RunConfig{Reps: 5, Threads: 1}).String() {
		t.Fatal("clean config rendering changed")
	}
}

func TestChaosScheduleDescribesItself(t *testing.T) {
	// The schedule a run will execute is printable up front and replays
	// byte-identically — the basis of cmd/verify's chaos lane.
	plan, err := fault.Parse("seed=23,panic=0.02,transient=0.2,slow=0.1")
	if err != nil {
		t.Fatal(err)
	}
	coords := fault.MeasureCoords("spr-sim", 12, 5, 1)
	a := plan.DescribeSchedule(coords, 3)
	b := plan.DescribeSchedule(coords, 3)
	if a != b {
		t.Fatal("schedule not stable")
	}
	counts := plan.ScheduleCounts(coords, 3)
	injected := 0
	for k, n := range counts {
		if k != int(fault.None) {
			injected += n
		}
	}
	if injected == 0 {
		t.Fatal("every slot clean — rates had no effect")
	}
}
