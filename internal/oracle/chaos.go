package oracle

import (
	"fmt"
	"strings"

	"github.com/perfmetrics/eventlens/internal/fault"
	"github.com/perfmetrics/eventlens/internal/suite"
)

// Chaos checks verify the fault-injection subsystem's three contractual
// invariants end to end, against real benchmarks:
//
//   - replay: one seed, one schedule, one report — byte for byte, at any
//     worker count;
//   - recovery: transient/slow faults within the retry budget are invisible
//     (output byte-identical to the fault-free run);
//   - degradation: unrecoverable faults surface as typed coordinate-naming
//     errors or partial reports, never as panics.
//
// cmd/verify -chaos drives these; seeds flow in from its -seed flag so a
// chaos run is reproducible from its command line.

// RecoverableSpec builds a fault spec whose transient and slow faults are
// structurally guaranteed to recover: retries >= depth.
func RecoverableSpec(seed uint64) string {
	return fmt.Sprintf("seed=%d,transient=0.3,slow=0.2,depth=2,retries=3", seed)
}

// UnrecoverableSpec builds a spec that panics every measurement.
func UnrecoverableSpec(seed uint64) string {
	return fmt.Sprintf("seed=%d,panic=1", seed)
}

// PartialSpec builds a spec whose transient faults can never be retried
// away, forcing partial-results mode.
func PartialSpec(seed uint64) string {
	return fmt.Sprintf("seed=%d,transient=0.2,retries=0", seed)
}

// renderChaosReport is renderReport under a fault spec, at the benchmark's
// default shape.
func renderChaosReport(bench suite.Benchmark, workers int, spec string) (string, error) {
	run := bench.DefaultRun
	run.Faults = spec
	return renderReport(bench, run, workers)
}

// CheckChaosSchedule verifies that a plan's fault schedule over a
// measurement coordinate space renders byte-identically across plan
// instances and is non-degenerate (some faults fire, some slots stay clean).
func CheckChaosSchedule(seed uint64) CheckResult {
	res := CheckResult{Name: "chaos/schedule", Cases: 1}
	spec := fmt.Sprintf("seed=%d,panic=0.02,corrupt=0.05,transient=0.2,slow=0.1", seed)
	plan, err := fault.Parse(spec)
	if err != nil {
		res.Err = err
		return res
	}
	again, err := fault.Parse(spec)
	if err != nil {
		res.Err = err
		return res
	}
	coords := fault.MeasureCoords("spr-sim", 12, 5, 2)
	a := plan.DescribeSchedule(coords, 3)
	b := again.DescribeSchedule(coords, 3)
	if a != b {
		res.Err = fmt.Errorf("schedule differs across plan instances of seed %d", seed)
		return res
	}
	counts := plan.ScheduleCounts(coords, 3)
	injected := 0
	for k, n := range counts {
		if k != int(fault.None) {
			injected += n
		}
	}
	if injected == 0 {
		res.Err = fmt.Errorf("seed %d: no faults fired over %d slots", seed, len(coords)*3)
	}
	if counts[fault.None] == 0 {
		res.Err = fmt.Errorf("seed %d: every slot faulted — rates are not rates", seed)
	}
	return res
}

// CheckChaosReplay verifies invariant 1 on one benchmark: the same spec
// yields byte-identical reports across runs and across worker counts.
func CheckChaosReplay(bench suite.Benchmark, seed uint64) CheckResult {
	res := CheckResult{Name: "chaos/replay " + bench.Name, Cases: 3}
	spec := RecoverableSpec(seed)
	first, err := renderChaosReport(bench, 1, spec)
	if err != nil {
		res.Err = err
		return res
	}
	again, err := renderChaosReport(bench, 1, spec)
	if err != nil {
		res.Err = err
		return res
	}
	if first != again {
		res.Err = fmt.Errorf("seed %d: two serial runs differ", seed)
		return res
	}
	parallel, err := renderChaosReport(bench, 4, spec)
	if err != nil {
		res.Err = err
		return res
	}
	if first != parallel {
		res.Err = fmt.Errorf("seed %d: Workers=1 and Workers=4 chaos reports differ", seed)
	}
	return res
}

// CheckChaosRecoverable verifies invariant 2 on one benchmark: a
// recoverable spec's report is byte-identical to the fault-free report, at
// Workers=1 and Workers=N.
func CheckChaosRecoverable(bench suite.Benchmark, seed uint64) CheckResult {
	res := CheckResult{Name: "chaos/recoverable " + bench.Name, Cases: 2}
	clean, err := renderChaosReport(bench, 1, "")
	if err != nil {
		res.Err = err
		return res
	}
	for _, workers := range []int{1, 4} {
		faulted, err := renderChaosReport(bench, workers, RecoverableSpec(seed))
		if err != nil {
			res.Err = fmt.Errorf("seed %d workers=%d: recoverable chaos failed the run: %v", seed, workers, err)
			return res
		}
		if faulted != clean {
			res.Err = fmt.Errorf("seed %d workers=%d: recoverable faults changed the output", seed, workers)
			return res
		}
	}
	return res
}

// CheckChaosUnrecoverable verifies invariant 3 on one benchmark: an
// all-panic spec surfaces a typed coordinate-naming error (not a crash),
// and a no-retries transient spec degrades to a partial report that
// replays across worker counts.
func CheckChaosUnrecoverable(bench suite.Benchmark, seed uint64) CheckResult {
	res := CheckResult{Name: "chaos/unrecoverable " + bench.Name, Cases: 2}
	_, err := renderChaosReport(bench, 4, UnrecoverableSpec(seed))
	if err == nil {
		res.Err = fmt.Errorf("seed %d: all-panic run succeeded", seed)
		return res
	}
	f, ok := fault.As(err)
	if !ok || f.Kind != fault.Panic {
		res.Err = fmt.Errorf("seed %d: panic did not surface as a typed fault: %v", seed, err)
		return res
	}
	if !strings.Contains(f.Coord.String(), "measure(") {
		res.Err = fmt.Errorf("seed %d: fault does not name its coordinate: %v", seed, f)
		return res
	}
	partial1, err1 := renderChaosReport(bench, 1, PartialSpec(seed))
	partialN, errN := renderChaosReport(bench, 4, PartialSpec(seed))
	if err1 != nil || errN != nil {
		// A clean typed failure is an acceptable degradation when too many
		// groups drop for the analysis to proceed — but it must agree
		// across worker counts.
		if (err1 == nil) != (errN == nil) || (err1 != nil && err1.Error() != errN.Error()) {
			res.Err = fmt.Errorf("seed %d: partial-mode outcomes diverge: %v vs %v", seed, err1, errN)
		}
		return res
	}
	if partial1 != partialN {
		res.Err = fmt.Errorf("seed %d: partial reports differ between worker counts", seed)
		return res
	}
	if !strings.Contains(partial1, "faults:") {
		res.Err = fmt.Errorf("seed %d: partial report does not name its unmeasured events", seed)
	}
	return res
}
