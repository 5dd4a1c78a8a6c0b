package cat

import (
	"sync"

	"github.com/perfmetrics/eventlens/internal/branchsim"
	"github.com/perfmetrics/eventlens/internal/core"
	"github.com/perfmetrics/eventlens/internal/machine"
	"github.com/perfmetrics/eventlens/internal/mat"
)

// Branch is the CAT branching benchmark: the 11 microkernels whose
// per-iteration counters realize the rows of the paper's Eq. 3.
type Branch struct {
	// Warmup and Measured are the uncounted and counted loop iterations.
	Warmup   uint64
	Measured uint64
}

// NewBranch returns the benchmark with a warmup long enough for the gshare
// predictor to converge and an even measured window.
func NewBranch() *Branch {
	return &Branch{Warmup: 256, Measured: 2048}
}

// PointNames returns the 11 kernel names.
func (b *Branch) PointNames() []string {
	kernels := branchsim.CATKernels()
	names := make([]string, len(kernels))
	for i, k := range kernels {
		names[i] = k.Name
	}
	return names
}

// branchTruths memoizes Branch ground truth by its loop windows, which are
// all it depends on: like DCache's chase memo, it lets every collection
// and validation in the process read one simulation of the kernels. An
// entry holds 11 points' statistics, about 3 KB; every shipped caller uses
// NewBranch's windows.
var branchTruths = struct {
	sync.Mutex
	entries map[[2]uint64]*branchTruth
}{entries: map[[2]uint64]*branchTruth{}}

// branchTruth is one memo entry: the first caller simulates, and
// concurrent callers wait on once.
type branchTruth struct {
	once  sync.Once
	truth [][]machine.Stats
	err   error
}

// GroundTruth returns the per-iteration statistics of every kernel, which
// every thread measures. The kernels run once per (Warmup, Measured) in
// the process; the result is shared and read-only.
func (b *Branch) GroundTruth(RunConfig) ([][]machine.Stats, error) {
	key := [2]uint64{b.Warmup, b.Measured}
	branchTruths.Lock()
	e := branchTruths.entries[key]
	if e == nil {
		e = new(branchTruth)
		branchTruths.entries[key] = e
	}
	branchTruths.Unlock()
	e.once.Do(func() { e.truth, e.err = b.simulate() })
	return e.truth, e.err
}

// simulate executes every kernel through a fresh branching unit.
func (b *Branch) simulate() ([][]machine.Stats, error) {
	var points []machine.Stats
	for _, kernel := range branchsim.CATKernels() {
		unit := branchsim.NewUnit()
		counts, err := unit.Run(kernel, b.Warmup, b.Measured)
		if err != nil {
			return nil, err
		}
		row := counts.PerIteration()
		ce, cr, taken, direct, misp := row[0], row[1], row[2], row[3], row[4]
		points = append(points, machine.Stats{
			machine.KeyBrCE:     ce,
			machine.KeyBrCR:     cr,
			machine.KeyBrTaken:  taken,
			machine.KeyBrDirect: direct,
			machine.KeyBrMisp:   misp,
			// Each branch site costs roughly three instructions (compare,
			// set, branch) plus constant loop bookkeeping — enough to keep
			// generic pipeline events responsive but unrepresentable in the
			// branch basis.
			machine.KeyInstr:  3*(cr+direct) + 2,
			machine.KeyCycles: (cr+direct)*1.5 + misp*14 + 2,
			machine.KeyIntOps: 2*cr + 2,
		})
	}
	return [][]machine.Stats{points}, nil
}

// Basis returns the 11x5 branching expectation basis — exactly the E_branch
// matrix of the paper's Eq. 3.
func (b *Branch) Basis() (*core.Basis, error) {
	rows := branchsim.ExpectationRows()
	e := mat.NewDense(len(rows), 5)
	for i, row := range rows {
		for j, v := range row {
			e.Set(i, j, v)
		}
	}
	return core.NewBasis(core.BranchBasisSymbols(), b.PointNames(), e)
}
