package oracle

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/perfmetrics/eventlens/internal/analysis"
	"github.com/perfmetrics/eventlens/internal/cat"
	"github.com/perfmetrics/eventlens/internal/core"
	"github.com/perfmetrics/eventlens/internal/machine"
	"github.com/perfmetrics/eventlens/internal/mat"
	"github.com/perfmetrics/eventlens/internal/suite"
)

// Dense matrix surface the metamorphic checks need; satisfied by *mat.Dense.
type columns interface {
	Dims() (int, int)
	Col(int) []float64
}

// Fixture is one benchmark's collected measurement set plus its baseline
// analysis — collected once and shared by all metamorphic checks, since
// collection dominates the pipeline's cost.
type Fixture struct {
	Bench suite.Benchmark
	Set   *core.MeasurementSet
	Basis *core.Basis
	Base  *core.Result
}

// NewFixture collects the benchmark's default run and analyzes it.
func NewFixture(bench suite.Benchmark) (*Fixture, error) {
	set, err := bench.Collect(context.Background(), bench.DefaultRun)
	if err != nil {
		return nil, err
	}
	basis, err := bench.Basis()
	if err != nil {
		return nil, err
	}
	pipe := &core.Pipeline{Basis: basis, Config: bench.Config}
	base, err := pipe.Analyze(set)
	if err != nil {
		return nil, err
	}
	return &Fixture{Bench: bench, Set: set, Basis: basis, Base: base}, nil
}

// transformSet returns a copy of f.Set with every measurement vector mapped
// through fn (which receives the event name, the measurement's index among
// that event's measurements, and the vector) and events emitted in the given
// order.
func (f *Fixture) transformSet(order []string, fn func(event string, idx int, v []float64) []float64) (*core.MeasurementSet, error) {
	out := core.NewMeasurementSet(f.Set.Benchmark, f.Set.Platform, f.Set.PointNames)
	for _, name := range order {
		for idx, m := range f.Set.Events[name] {
			v := make([]float64, len(m.Vector))
			copy(v, m.Vector)
			v = fn(name, idx, v)
			if err := out.Add(name, core.Measurement{Rep: m.Rep, Thread: m.Thread, Vector: v}); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// analyze runs the pipeline on a transformed set with the fixture's config.
func (f *Fixture) analyze(set *core.MeasurementSet) (*core.Result, error) {
	pipe := &core.Pipeline{Basis: f.Basis, Config: f.Bench.Config}
	return pipe.Analyze(set)
}

// CheckScaling verifies the linearity metamorphic property (paper Eq. 4 and
// Section III-B): scaling every measurement by c leaves the noise filter's
// survivor set and each survivor's max-RNMSE unchanged (the measure is scale
// invariant), and scales every fitted projection coefficient by exactly c
// while leaving relative residuals unchanged. Checked at the noise and
// projection stages, where the property holds mathematically; the
// specialized QRCP's alpha grid is intentionally absolute, so selection is
// not asserted under scaling.
func CheckScaling(f *Fixture, factors []float64, tol Tol) CheckResult {
	res := CheckResult{Name: "metamorphic/scaling " + f.Bench.Name, Cases: len(factors)}
	projector, err := core.NewProjector(f.Basis)
	if err != nil {
		res.Err = err
		return res
	}
	for _, c := range factors {
		c := c
		scaled, err := f.transformSet(f.Set.Order, func(_ string, _ int, v []float64) []float64 {
			for i := range v {
				v[i] *= c
			}
			return v
		})
		if err != nil {
			res.Err = err
			return res
		}
		noise := core.FilterNoiseWithWorkers(scaled, f.Bench.Config.Tau, core.MaxRNMSE, 1)
		if err := equalStringSlices("noise survivors", noise.KeptOrder, f.Base.Noise.KeptOrder); err != nil {
			res.Err = fmt.Errorf("scale %g: %w", c, err)
			return res
		}
		base := variabilityMap(f.Base.Noise)
		for _, v := range noise.Variabilities {
			want, ok := base[v.Event]
			if !ok {
				res.Err = fmt.Errorf("scale %g: event %q appeared under scaling", c, v.Event)
				return res
			}
			if !tol.Close(v.MaxRNMSE, want) {
				res.Err = fmt.Errorf("scale %g: max-RNMSE of %q = %.17g, want %.17g (measure must be scale invariant)",
					c, v.Event, v.MaxRNMSE, want)
				return res
			}
			res.observe(RelDiff(v.MaxRNMSE, want))
		}
		proj, err := core.BuildXWorkers(f.Basis, noise.Kept, noise.KeptOrder, f.Bench.Config.ProjectionTol, 1)
		if err != nil {
			res.Err = fmt.Errorf("scale %g: %v", c, err)
			return res
		}
		if err := equalStringSlices("representable events", proj.Order, f.Base.Projection.Order); err != nil {
			res.Err = fmt.Errorf("scale %g: %w", c, err)
			return res
		}
		// Representations are the columns of X, in Order; residuals come
		// from projecting each event's mean again.
		for j, event := range proj.Order {
			gotX, wantX := proj.X.Col(j), f.Base.Projection.X.Col(j)
			got, err := projector.Project(event, noise.Kept[event])
			if err != nil {
				res.Err = fmt.Errorf("scale %g: %v", c, err)
				return res
			}
			want, err := projector.Project(event, f.Base.Noise.Kept[event])
			if err != nil {
				res.Err = fmt.Errorf("scale %g: %v", c, err)
				return res
			}
			scaledWant := make([]float64, len(wantX))
			norm := 0.0
			for i := range wantX {
				scaledWant[i] = c * wantX[i]
				if a := math.Abs(scaledWant[i]); a > norm {
					norm = a
				}
			}
			// Floor the absolute tolerance at Rel·‖c·x‖∞: a coefficient that
			// is exactly zero at one scale legitimately reappears as
			// O(eps·‖x‖) rounding at another.
			vecTol := tol
			if a := tol.Rel * norm; a > vecTol.Abs {
				vecTol.Abs = a
			}
			if err := vecTol.CheckVec(fmt.Sprintf("scale %g: projection of %q", c, event), gotX, scaledWant); err != nil {
				res.Err = err
				return res
			}
			if !tol.Close(got.RelResidual, want.RelResidual) {
				res.Err = fmt.Errorf("scale %g: RelResidual of %q = %.17g, want %.17g",
					c, event, got.RelResidual, want.RelResidual)
				return res
			}
			// Residuals live on the ProjectionTol scale; pairs far below it
			// should read as agreement on the drift dashboard, not as O(1).
			res.observe(RelDiffScaled(got.RelResidual, want.RelResidual, f.Bench.Config.ProjectionTol*1e-3))
		}
	}
	return res
}

// CheckPermutation verifies that permuting the measurement order of events
// permutes but never changes the analysis: the noise filter's survivor and
// discard sets are equivariant, the specialized QRCP's rank is unchanged,
// and the selected representations (the columns of X̂) are the same
// multiset. Individual selected *names* may differ only where two events
// have identical representations — the pivot tie deliberately breaks to the
// earliest event — so names are compared through their columns.
func CheckPermutation(f *Fixture, seeds []int64, tol Tol) CheckResult {
	res := CheckResult{Name: "metamorphic/permutation " + f.Bench.Name, Cases: len(seeds)}
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		order := append([]string{}, f.Set.Order...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		permuted, err := f.transformSet(order, func(_ string, _ int, v []float64) []float64 { return v })
		if err != nil {
			res.Err = err
			return res
		}
		got, err := f.analyze(permuted)
		if err != nil {
			res.Err = fmt.Errorf("seed %d: %v", seed, err)
			return res
		}
		if err := equalStringSets("noise survivors", got.Noise.KeptOrder, f.Base.Noise.KeptOrder); err != nil {
			res.Err = fmt.Errorf("seed %d: %w", seed, err)
			return res
		}
		if err := equalStringSets("discarded events", got.Noise.Discarded, f.Base.Noise.Discarded); err != nil {
			res.Err = fmt.Errorf("seed %d: %w", seed, err)
			return res
		}
		if err := equalStringSets("noise-filtered events", got.Noise.Filtered, f.Base.Noise.Filtered); err != nil {
			res.Err = fmt.Errorf("seed %d: %w", seed, err)
			return res
		}
		if err := equalStringSets("projection-dropped events", got.Projection.Dropped, f.Base.Projection.Dropped); err != nil {
			res.Err = fmt.Errorf("seed %d: %w", seed, err)
			return res
		}
		if got.QR.Rank != f.Base.QR.Rank {
			res.Err = fmt.Errorf("seed %d: rank %d, want %d", seed, got.QR.Rank, f.Base.QR.Rank)
			return res
		}
		if err := equalColumnMultisets(got.Xhat, f.Base.Xhat, tol); err != nil {
			res.Err = fmt.Errorf("seed %d: selected representations changed: %w", seed, err)
			return res
		}
		// Metric definitions over the same selected subspace must fit
		// equally well regardless of selection order.
		gotDefs, err := got.DefineMetrics(f.Bench.Signatures)
		if err != nil {
			res.Err = fmt.Errorf("seed %d: %v", seed, err)
			return res
		}
		baseDefs, err := f.Base.DefineMetrics(f.Bench.Signatures)
		if err != nil {
			res.Err = fmt.Errorf("seed %d: %v", seed, err)
			return res
		}
		for i := range gotDefs {
			g, b := gotDefs[i], baseDefs[i]
			if !tol.Close(g.BackwardError, b.BackwardError) && RelDiffScaled(g.BackwardError, b.BackwardError, 1e-12) > tol.Rel {
				res.Err = fmt.Errorf("seed %d: %s backward error %.17g, want %.17g",
					seed, g.Metric, g.BackwardError, b.BackwardError)
				return res
			}
			res.observe(RelDiffScaled(g.BackwardError, b.BackwardError, 1e-12))
		}
	}
	return res
}

// JitterGuardFactor is the guard band around tau inside which the jitter
// check does not assert: an event whose baseline variability is within a
// factor of JitterGuardFactor of the threshold could legitimately cross it
// under jitter, so "never changes survivors" is only a theorem outside the
// band. The suite benchmarks keep decades of clearance, so in practice no
// event is skipped; the skipped count is still reported.
const JitterGuardFactor = 8.0

// CheckJitter verifies noise-filter stability: multiplicative measurement
// jitter of relative magnitude tau/100 — far below the filtering threshold —
// must not change the survivor set, for every event whose baseline
// variability clears the threshold by more than JitterGuardFactor. The
// second return value is the number of guard-band events excluded from the
// assertion.
func CheckJitter(f *Fixture, seeds []int64) (CheckResult, int) {
	res := CheckResult{Name: "metamorphic/jitter " + f.Bench.Name, Cases: len(seeds)}
	tau := f.Bench.Config.Tau
	eps := tau / 100
	baseVar := variabilityMap(f.Base.Noise)
	inGuardBand := func(event string) bool {
		v, ok := baseVar[event]
		if !ok { // all-zero events carry no variability entry
			return false
		}
		return v > tau/JitterGuardFactor && v < tau*JitterGuardFactor
	}
	skipped := 0
	for _, name := range f.Set.Order {
		if inGuardBand(name) {
			skipped++
		}
	}
	baseKept := stringSet(f.Base.Noise.KeptOrder)
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		jittered, err := f.transformSet(f.Set.Order, func(_ string, _ int, v []float64) []float64 {
			for i := range v {
				v[i] *= 1 + (2*rng.Float64()-1)*eps
			}
			return v
		})
		if err != nil {
			res.Err = err
			return res, skipped
		}
		noise := core.FilterNoiseWithWorkers(jittered, tau, core.MaxRNMSE, 1)
		gotKept := stringSet(noise.KeptOrder)
		for _, name := range f.Set.Order {
			if inGuardBand(name) {
				continue
			}
			if baseKept[name] != gotKept[name] {
				was, is := "kept", "filtered"
				if !baseKept[name] {
					was, is = is, was
				}
				res.Err = fmt.Errorf("seed %d: event %q was %s, jitter of %.1e made it %s (baseline max-RNMSE %.3e, tau %.3e)",
					seed, name, was, eps, is, baseVar[name], tau)
				return res, skipped
			}
		}
	}
	return res, skipped
}

// CheckWorkersDeterminism generalizes the repository's determinism test to
// randomized configurations: for several random (reps, threads, workers)
// draws, the full report rendered with Workers=1 must be byte-identical to
// the one rendered with the drawn worker count.
func CheckWorkersDeterminism(bench suite.Benchmark, seed int64, configs int) CheckResult {
	res := CheckResult{Name: "metamorphic/workers " + bench.Name, Cases: configs}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < configs; i++ {
		reps := 2 + rng.Intn(4)    // 2..5
		threads := 1 + rng.Intn(3) // 1..3
		workers := 2 + rng.Intn(7) // 2..8
		run := bench.DefaultRun
		run.Reps, run.Threads = reps, threads
		serial, err := renderReport(bench, run, 1)
		if err != nil {
			res.Err = fmt.Errorf("config %d (reps=%d threads=%d): serial: %v", i, reps, threads, err)
			return res
		}
		parallel, err := renderReport(bench, run, workers)
		if err != nil {
			res.Err = fmt.Errorf("config %d (reps=%d threads=%d workers=%d): %v", i, reps, threads, workers, err)
			return res
		}
		if serial == "" {
			res.Err = fmt.Errorf("config %d: empty report", i)
			return res
		}
		if serial != parallel {
			res.Err = fmt.Errorf("config %d: reps=%d threads=%d: Workers=1 and Workers=%d reports differ",
				i, reps, threads, workers)
			return res
		}
	}
	return res
}

// renderReport runs the benchmark end to end as eventlensd and cmd/analyze
// do (analysis.Run: collection, noise profile, analysis, metric definition)
// on run, with workers filling the collection and analysis worker counts,
// and renders the canonical text report.
func renderReport(bench suite.Benchmark, run cat.RunConfig, workers int) (string, error) {
	reg, err := machine.NewRegistry()
	if err != nil {
		return "", err
	}
	a, err := analysis.Run(context.Background(), reg, analysis.Request{Benchmark: bench.Name, Run: &run}, workers)
	if err != nil {
		return "", err
	}
	return a.Report(), nil
}

// ---- comparison helpers ------------------------------------------------

func stringSet(xs []string) map[string]bool {
	m := make(map[string]bool, len(xs))
	for _, x := range xs {
		m[x] = true
	}
	return m
}

func equalStringSlices(what string, got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s: entry %d is %q, want %q", what, i, got[i], want[i])
		}
	}
	return nil
}

func equalStringSets(what string, got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d entries, want %d", what, len(got), len(want))
	}
	w := stringSet(want)
	for _, g := range got {
		if !w[g] {
			return fmt.Errorf("%s: unexpected %q", what, g)
		}
	}
	return nil
}

func variabilityMap(r *core.NoiseReport) map[string]float64 {
	m := make(map[string]float64, len(r.Variabilities))
	for _, v := range r.Variabilities {
		m[v.Event] = v.MaxRNMSE
	}
	return m
}

// equalColumnMultisets sorts both matrices' columns lexicographically and
// compares them pairwise within tol.
func equalColumnMultisets(a, b columns, tol Tol) error {
	ar, ac := a.Dims()
	br, bc := b.Dims()
	if ar != br || ac != bc {
		return fmt.Errorf("shape %dx%d, want %dx%d", ar, ac, br, bc)
	}
	ca := sortedColumns(a, ac)
	cb := sortedColumns(b, bc)
	for j := range ca {
		if err := tol.CheckVec(fmt.Sprintf("sorted column %d", j), ca[j], cb[j]); err != nil {
			return err
		}
	}
	return nil
}

func sortedColumns(m columns, n int) [][]float64 {
	cols := make([][]float64, n)
	for j := 0; j < n; j++ {
		cols[j] = m.Col(j)
	}
	sort.Slice(cols, func(i, j int) bool {
		for k := range cols[i] {
			if !mat.ExactEq(cols[i][k], cols[j][k]) {
				return cols[i][k] < cols[j][k]
			}
		}
		return false
	})
	return cols
}
