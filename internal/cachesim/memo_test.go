package cachesim

import (
	"strings"
	"sync/atomic"
	"testing"

	"github.com/perfmetrics/eventlens/internal/par"
)

// resetChaseMemo empties the chase memo, so the next run of any chase
// reaches the engine.
func resetChaseMemo() {
	chaseMemo.Lock()
	defer chaseMemo.Unlock()
	chaseMemo.entries = map[string]*memoEntry{}
	chaseMemo.ring = [chaseMemoEntries]*memoEntry{}
	chaseMemo.next = 0
}

// memoLen reports how many results the chase memo holds.
func memoLen() int {
	chaseMemo.Lock()
	defer chaseMemo.Unlock()
	return len(chaseMemo.entries)
}

// runCounted runs tasks and reports how many chases reached the engine.
func runCounted(t *testing.T, cfgs []LevelConfig, tlbCfgs []TLBConfig, tasks []SweepTask, passes, workers int) ([]*ChaseResult, int64) {
	t.Helper()
	before := engineRuns.Load()
	got, err := RunSweepTasks(cfgs, tlbCfgs, tasks, passes, workers)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return got, engineRuns.Load() - before
}

// coldRun empties the memo, runs tasks, and fails unless every task reached
// the engine: a comparison meant to exercise the engine at some worker
// count must not be answered by the memo.
func coldRun(t *testing.T, cfgs []LevelConfig, tlbCfgs []TLBConfig, tasks []SweepTask, passes, workers int) []*ChaseResult {
	t.Helper()
	resetChaseMemo()
	got, runs := runCounted(t, cfgs, tlbCfgs, tasks, passes, workers)
	if runs != int64(len(tasks)) {
		t.Fatalf("workers=%d: engine ran %d of %d chases", workers, runs, len(tasks))
	}
	return got
}

func tinyTLBs() []TLBConfig {
	return []TLBConfig{
		{Name: "DTLB", Entries: 8, Ways: 2, PageBits: 8},
		{Name: "STLB", Entries: 32, Ways: 4, PageBits: 8},
	}
}

// tinySweepTasks is the tiny hierarchy's sweep at two strides, one seed per
// point.
func tinySweepTasks(seed int64) []SweepTask {
	var tasks []SweepTask
	for i, p := range BuildSweep(tinyConfig(), []int{64, 128}) {
		tasks = append(tasks, SweepTask{Point: p, Seed: seed + int64(i)})
	}
	return tasks
}

// TestChaseMemoKeyMetamorphic changes one engine input at a time: every
// change must miss and match the reference for the changed input, and a
// change to a field the engine never reads must hit.
func TestChaseMemoKeyMetamorphic(t *testing.T) {
	resetChaseMemo()
	type input struct {
		levels []LevelConfig
		tlbs   []TLBConfig
		task   SweepTask
		passes int
	}
	base := func() input {
		return input{
			levels: tinyConfig(),
			tlbs:   tinyTLBs(),
			task:   SweepTask{Point: SweepPoint{Region: RegionL2, StrideBytes: 64, Elements: 40}, Seed: 5},
			passes: 1,
		}
	}
	run := func(label string, in input, wantRuns int64) {
		t.Helper()
		got, runs := runCounted(t, in.levels, in.tlbs, []SweepTask{in.task}, in.passes, 1)
		if runs != wantRuns {
			t.Fatalf("%s: engine ran %d chases, want %d", label, runs, wantRuns)
		}
		want, err := RunSweepPointTLB(in.levels, in.tlbs, in.task.Point, in.task.Seed, in.passes)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, label, got[0], want)
	}
	run("base", base(), 1)
	run("base again", base(), 0)

	misses := []struct {
		name   string
		mutate func(*input)
	}{
		{"L1 size", func(in *input) { in.levels[0].Size *= 2 }},
		{"L2 size", func(in *input) { in.levels[1].Size *= 2 }},
		{"L3 size", func(in *input) { in.levels[2].Size *= 2 }},
		{"L1 ways", func(in *input) { in.levels[0].Ways *= 2 }},
		{"L2 ways", func(in *input) { in.levels[1].Ways *= 2 }},
		{"L3 ways", func(in *input) { in.levels[2].Ways *= 2 }},
		// Line size and page size are shared by every level of their
		// hierarchy, so they change together.
		{"line size", func(in *input) {
			for i := range in.levels {
				in.levels[i].LineSize *= 2
			}
		}},
		{"DTLB entries", func(in *input) { in.tlbs[0].Entries *= 2 }},
		{"STLB entries", func(in *input) { in.tlbs[1].Entries *= 2 }},
		{"DTLB ways", func(in *input) { in.tlbs[0].Ways *= 2 }},
		{"STLB ways", func(in *input) { in.tlbs[1].Ways *= 2 }},
		{"page bits", func(in *input) {
			for i := range in.tlbs {
				in.tlbs[i].PageBits++
			}
		}},
		{"elements", func(in *input) { in.task.Point.Elements++ }},
		{"stride", func(in *input) { in.task.Point.StrideBytes *= 2 }},
		{"seed", func(in *input) { in.task.Seed++ }},
		{"passes", func(in *input) { in.passes++ }},
	}
	for _, m := range misses {
		in := base()
		m.mutate(&in)
		run(m.name, in, 1)
	}

	hits := []struct {
		name   string
		mutate func(*input)
	}{
		{"region", func(in *input) { in.task.Point.Region = RegionMem }},
		{"level name", func(in *input) { in.levels[0].Name = "renamed" }},
		{"TLB name", func(in *input) { in.tlbs[1].Name = "renamed" }},
	}
	for _, h := range hits {
		in := base()
		h.mutate(&in)
		run(h.name, in, 0)
	}
}

// TestChaseMemoHitMatchesFreshRun proves a memo hit bit-identical to a
// fresh engine run of the same tasks.
func TestChaseMemoHitMatchesFreshRun(t *testing.T) {
	tasks := tinySweepTasks(40)
	first := coldRun(t, tinyConfig(), tinyTLBs(), tasks, 2, 0)
	hit, runs := runCounted(t, tinyConfig(), tinyTLBs(), tasks, 2, 0)
	if runs != 0 {
		t.Fatalf("warm run reached the engine %d times", runs)
	}
	fresh := coldRun(t, tinyConfig(), tinyTLBs(), tasks, 2, 1)
	for i, task := range tasks {
		sameResult(t, "hit/"+task.Point.Name(), hit[i], fresh[i])
		sameResult(t, "first/"+task.Point.Name(), first[i], fresh[i])
	}
}

// TestChaseMemoCoalescesConcurrentCalls runs overlapping task lists from
// several goroutines at once: every key reaches the engine exactly once, and
// every caller gets the reference results. Under -race it also checks the
// memo's publication.
func TestChaseMemoCoalescesConcurrentCalls(t *testing.T) {
	resetChaseMemo()
	tasks := tinySweepTasks(70)
	want := make([]*ChaseResult, len(tasks))
	for i, task := range tasks {
		var err error
		if want[i], err = RunSweepPointTLB(tinyConfig(), tinyTLBs(), task.Point, task.Seed, 1); err != nil {
			t.Fatal(err)
		}
	}
	const callers = 8
	got := make([][]*ChaseResult, callers)
	order := make([][]int, callers)
	errs := make([]error, callers)
	for c := range order {
		// Caller c starts its list at task c and repeats its first task at
		// the end, so calls overlap each other and themselves.
		for k := 0; k <= len(tasks); k++ {
			order[c] = append(order[c], (c+k)%len(tasks))
		}
	}
	// Every caller waits until all have arrived, so the calls overlap.
	var arrived atomic.Int32
	start := make(chan struct{})
	before := engineRuns.Load()
	par.For(callers, callers, func(c int) {
		mine := make([]SweepTask, len(order[c]))
		for k, i := range order[c] {
			mine[k] = tasks[i]
		}
		if arrived.Add(1) == callers {
			close(start)
		}
		<-start
		got[c], errs[c] = RunSweepTasks(tinyConfig(), tinyTLBs(), mine, 1, c%3)
	})
	if runs := engineRuns.Load() - before; runs != int64(len(tasks)) {
		t.Fatalf("engine ran %d chases for %d distinct tasks", runs, len(tasks))
	}
	for c := range got {
		if errs[c] != nil {
			t.Fatalf("caller %d: %v", c, errs[c])
		}
		for k, i := range order[c] {
			sameResult(t, tasks[i].Point.Name(), got[c][k], want[i])
		}
	}
}

// TestChaseMemoBound claims more distinct chases than the memo holds in one
// call: every result still comes back right, the memo stops at its bound,
// and the oldest entries are the ones dropped.
func TestChaseMemoBound(t *testing.T) {
	defer resetChaseMemo()
	point := SweepPoint{Region: RegionL1, StrideBytes: 64, Elements: 4}
	tasks := make([]SweepTask, chaseMemoEntries+100)
	for i := range tasks {
		tasks[i] = SweepTask{Point: point, Seed: int64(i)}
	}
	got := coldRun(t, tinyConfig(), nil, tasks, 1, 1)
	for i, task := range tasks {
		want, err := RunSweepPointTLB(tinyConfig(), nil, task.Point, task.Seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "bound", got[i], want)
	}
	if n := memoLen(); n != chaseMemoEntries {
		t.Fatalf("memo holds %d results, bound %d", n, chaseMemoEntries)
	}
	if _, runs := runCounted(t, tinyConfig(), nil, tasks[len(tasks)-1:], 1, 1); runs != 0 {
		t.Fatal("newest result was evicted")
	}
	if _, runs := runCounted(t, tinyConfig(), nil, tasks[:1], 1, 1); runs != 1 {
		t.Fatal("oldest result outlived the bound")
	}
}

// TestChaseMemoDoesNotKeepErrors runs a chase past the plan limit three
// times: every call reaches the engine and returns the plan-limit error.
func TestChaseMemoDoesNotKeepErrors(t *testing.T) {
	resetChaseMemo()
	huge := []SweepTask{{Point: SweepPoint{Region: RegionMem, StrideBytes: 64, Elements: maxPlanElements}, Seed: 1}}
	for call := 0; call < 3; call++ {
		before := engineRuns.Load()
		_, err := RunSweepTasks(tinyConfig(), nil, huge, 1, 1)
		if err == nil || !strings.Contains(err.Error(), "plan limit") {
			t.Fatalf("call %d: err = %v, want the plan-limit error", call, err)
		}
		if runs := engineRuns.Load() - before; runs != 1 {
			t.Fatalf("call %d: engine ran %d chases, want 1", call, runs)
		}
	}
	if n := memoLen(); n != 0 {
		t.Fatalf("memo kept %d entries for failed chases", n)
	}
}

// TestChaseMemoServesCopies mutates every returned result: the next hit must
// still equal the reference.
func TestChaseMemoServesCopies(t *testing.T) {
	tasks := []SweepTask{{Point: SweepPoint{Region: RegionL2, StrideBytes: 64, Elements: 40}, Seed: 9}}
	want, err := RunSweepPointTLB(tinyConfig(), tinyTLBs(), tasks[0].Point, tasks[0].Seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := coldRun(t, tinyConfig(), tinyTLBs(), tasks, 1, 1)
	for round := 0; round < 2; round++ {
		r := got[0]
		r.HitRate[0], r.MissRate[1], r.TLBMissRate[0] = 42, -1, 7
		r.MemRate, r.WalkRate, r.Accesses = 3, 4, 0
		var runs int64
		got, runs = runCounted(t, tinyConfig(), tinyTLBs(), tasks, 1, 1)
		if runs != 0 {
			t.Fatalf("round %d: warm run reached the engine", round)
		}
		sameResult(t, "hit after mutation", got[0], want)
	}
}
