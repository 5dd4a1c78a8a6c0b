// Package report runs the complete reproduction — all four benchmarks,
// every table and figure — and checks the results against the paper's
// expected shapes, producing a PASS/FAIL markdown report. It is the
// automated counterpart of EXPERIMENTS.md.
package report

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/perfmetrics/eventlens/internal/analysis"
	"github.com/perfmetrics/eventlens/internal/cat"
	"github.com/perfmetrics/eventlens/internal/core"
	"github.com/perfmetrics/eventlens/internal/cpusim"
	"github.com/perfmetrics/eventlens/internal/machine"
	"github.com/perfmetrics/eventlens/internal/mat"
	"github.com/perfmetrics/eventlens/internal/suite"
)

// Check is one verified claim.
type Check struct {
	// ID ties the check to a paper artifact, e.g. "TableV/DP Ops.".
	ID string
	// Pass reports whether the measured result matches the expected shape.
	Pass bool
	// Detail explains what was measured.
	Detail string
}

// Report is the outcome of a full reproduction run.
type Report struct {
	Checks []Check
}

// Failed returns the failing checks.
func (r *Report) Failed() []Check {
	var out []Check
	for _, c := range r.Checks {
		if !c.Pass {
			out = append(out, c)
		}
	}
	return out
}

// add records one check.
func (r *Report) add(id string, pass bool, format string, args ...interface{}) {
	r.Checks = append(r.Checks, Check{ID: id, Pass: pass, Detail: fmt.Sprintf(format, args...)})
}

// expectedSelections are the paper's Section V event selections per
// benchmark.
var expectedSelections = map[string][]string{
	"cpu-flops": {
		"FP_ARITH_INST_RETIRED:SCALAR_SINGLE",
		"FP_ARITH_INST_RETIRED:128B_PACKED_SINGLE",
		"FP_ARITH_INST_RETIRED:256B_PACKED_SINGLE",
		"FP_ARITH_INST_RETIRED:512B_PACKED_SINGLE",
		"FP_ARITH_INST_RETIRED:SCALAR_DOUBLE",
		"FP_ARITH_INST_RETIRED:128B_PACKED_DOUBLE",
		"FP_ARITH_INST_RETIRED:256B_PACKED_DOUBLE",
		"FP_ARITH_INST_RETIRED:512B_PACKED_DOUBLE",
	},
	"branch": {
		"BR_MISP_RETIRED",
		"BR_INST_RETIRED:COND",
		"BR_INST_RETIRED:COND_TAKEN",
		"BR_INST_RETIRED:ALL_BRANCHES",
	},
	"dcache": {
		"MEM_LOAD_RETIRED:L3_HIT",
		"L2_RQSTS:DEMAND_DATA_RD_HIT",
		"MEM_LOAD_RETIRED:L1_MISS",
		"MEM_LOAD_RETIRED:L1_HIT",
	},
}

// nonComposable maps benchmark name to the metrics the paper shows as NOT
// composable, with their expected backward errors.
var nonComposable = map[string]map[string]float64{
	"cpu-flops": {
		"SP FMA Instrs.": 0.236,
		"DP FMA Instrs.": 0.236,
	},
	"gpu-flops": {
		"HP Add Ops.": 0.414,
		"HP Sub Ops.": 0.414,
	},
	"branch": {
		"Conditional Branches Executed.": 1.0,
	},
}

// Run executes the complete reproduction and returns the report. Every
// benchmark is analyzed as the daemon analyzes a request for it: its
// default run, thresholds and platform, resolved against the built-in
// registry.
func Run() (*Report, error) {
	reg, err := machine.NewRegistry()
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	r := &Report{}
	for _, bench := range suite.All() {
		a, err := analysis.Run(context.Background(), reg, analysis.Request{Benchmark: bench.Name}, 0)
		if err != nil {
			return nil, fmt.Errorf("report: %s: %w", bench.Name, err)
		}
		r.checkSelection(bench, a.Result)
		r.checkMetrics(bench, a.Defs)
		r.checkFigure2(bench, a.Result)
		if bench.Name == "dcache" {
			r.checkFigure3(bench, a)
		}
		if bench.Name == "cpu-flops" {
			r.checkAlphaSensitivity(bench, a.Result)
			r.checkAutoTau(a.Result)
			r.checkWorkloadValidation(a)
		}
	}
	r.checkZen4CrossArch(reg)
	return r, nil
}

// checkAutoTau verifies automatic threshold selection lands inside the gap.
func (r *Report) checkAutoTau(res *core.Result) {
	s := core.SuggestTau(res.Noise.Variabilities)
	pass := s.GapDecades >= 4 && s.Tau > 1e-16 && s.Tau < 1e-4
	r.add("Extension/auto-tau", pass, "suggested tau %.2e in a %.1f-decade gap (%d clean / %d noisy)",
		s.Tau, s.GapDecades, s.Below, s.Above)
}

// checkWorkloadValidation verifies derived DP/SP Ops metrics against the
// simulator ground truth on an unseen workload, measured on the platform the
// metrics were derived on.
func (r *Report) checkWorkloadValidation(a *analysis.Analysis) {
	var dpDef, spDef *core.MetricDefinition
	for _, def := range a.Defs {
		switch def.Metric {
		case "DP Ops.":
			dpDef = def.Rounded(0.05)
		case "SP Ops.":
			spDef = def.Rounded(0.05)
		}
	}
	worst := 0.0
	for _, k := range []*cpusim.Kernel{
		cpusim.TriadKernel(400), cpusim.StencilKernel(250), cpusim.MixedPrecisionKernel(100),
	} {
		counts := cpusim.DefaultCore().Run(k)
		wantDP, wantSP := cpusim.TrueOps(counts)
		stats := cat.CPUStats(counts)
		var names []string
		for _, t := range dpDef.NonZeroTerms() {
			names = append(names, t.Event)
		}
		for _, t := range spDef.NonZeroTerms() {
			names = append(names, t.Event)
		}
		vectors, err := a.ID.Platform.Measure([]machine.Stats{stats}, names, 0, 0)
		if err != nil {
			r.add("Extension/validation", false, "%v", err)
			return
		}
		gotDP, err1 := dpDef.Combine(vectors)
		gotSP, err2 := spDef.Combine(vectors)
		if err1 != nil || err2 != nil {
			r.add("Extension/validation", false, "combine failed: %v %v", err1, err2)
			return
		}
		for _, pair := range [][2]float64{{gotDP[0], wantDP}, {gotSP[0], wantSP}} {
			if d := math.Abs(pair[0]-pair[1]) / math.Max(1, pair[1]); d > worst {
				worst = d
			}
		}
	}
	r.add("Extension/validation", worst < 1e-9,
		"derived FLOP metrics match simulator ground truth on 3 unseen workloads (worst rel err %.2g)", worst)
}

// checkZen4CrossArch verifies the merged-precision platform: precision
// metrics must fail, the four width events must be selected.
func (r *Report) checkZen4CrossArch(reg *machine.Registry) {
	a, err := analysis.Run(context.Background(), reg, analysis.Request{Benchmark: "cpu-flops", Platform: "zen4"}, 0)
	if err != nil {
		r.add("Extension/zen4", false, "%v", err)
		return
	}
	pass := len(a.Result.SelectedEvents) == 4
	for _, def := range a.Defs {
		if def.Composable(1e-2) {
			pass = false
		}
	}
	r.add("Extension/zen4", pass,
		"merged-precision platform: %d width events selected, all precision metrics correctly non-composable",
		len(a.Result.SelectedEvents))
}

// checkSelection verifies the Section V event selections.
func (r *Report) checkSelection(bench suite.Benchmark, res *core.Result) {
	id := fmt.Sprintf("SectionV/%s", bench.Name)
	if bench.Name == "gpu-flops" {
		pass := len(res.SelectedEvents) == 12
		for _, name := range res.SelectedEvents {
			if !strings.HasPrefix(name, "rocm:::SQ_INSTS_VALU_") {
				pass = false
			}
		}
		r.add(id, pass, "selected %d events (want the 12 SQ_INSTS_VALU_*)", len(res.SelectedEvents))
		return
	}
	want := expectedSelections[bench.Name]
	got := append([]string(nil), res.SelectedEvents...)
	sort.Strings(got)
	wantSorted := append([]string(nil), want...)
	sort.Strings(wantSorted)
	pass := len(got) == len(wantSorted)
	if pass {
		for i := range got {
			if got[i] != wantSorted[i] {
				pass = false
				break
			}
		}
	}
	r.add(id, pass, "selected %v", res.SelectedEvents)
}

// checkMetrics verifies Tables V-VIII: composable metrics have tiny errors,
// the known non-composable ones match the paper's error values.
func (r *Report) checkMetrics(bench suite.Benchmark, defs []*core.MetricDefinition) {
	bad := nonComposable[bench.Name]
	for _, def := range defs {
		id := fmt.Sprintf("Table%s/%s", bench.MetricTable, def.Metric)
		if wantErr, isBad := bad[def.Metric]; isBad {
			pass := math.Abs(def.BackwardError-wantErr) < 0.01
			r.add(id, pass, "backward error %.3g (paper: %.3g, non-composable)", def.BackwardError, wantErr)
			continue
		}
		// Composable: small error. Cache metrics carry injected noise.
		tol := 1e-10
		if bench.Name == "dcache" {
			tol = 1e-2
		}
		r.add(id, def.BackwardError <= tol, "backward error %.3g (composable, tol %.0e)", def.BackwardError, tol)
	}
	// Cache rounding claim (Section VI-D).
	if bench.Name == "dcache" {
		allInt := true
		for _, def := range defs {
			for _, term := range def.Rounded(bench.Config.RoundTol).Terms {
				if !mat.IsIntegral(term.Coeff) {
					allInt = false
				}
			}
		}
		r.add("TableVIII/rounding", allInt, "all cache coefficients round to integers within %.0e", bench.Config.RoundTol)
	}
}

// checkFigure2 verifies the variability split: nothing may sit between the
// zero-noise cluster and tau for the low-noise benchmarks.
func (r *Report) checkFigure2(bench suite.Benchmark, res *core.Result) {
	id := fmt.Sprintf("Figure%s/%s", bench.Figure, bench.Name)
	zero, tail, gapViolations := 0, 0, 0
	for _, v := range res.Noise.Variabilities {
		switch {
		case mat.IsZero(v.MaxRNMSE):
			zero++
		case v.MaxRNMSE <= bench.Config.Tau:
			gapViolations++
		default:
			tail++
		}
	}
	if bench.Name == "dcache" {
		// Pervasive noise: only require that tau keeps an analyzable core.
		pass := len(res.Noise.KeptOrder) >= 4 && tail > 0
		r.add(id, pass, "%d events kept under tau=%.0e, %d filtered", len(res.Noise.KeptOrder), bench.Config.Tau, tail)
		return
	}
	pass := zero > 0 && tail > 0 && gapViolations == 0
	r.add(id, pass, "%d zero-noise, %d noisy, %d inside the forbidden gap", zero, tail, gapViolations)
}

// checkFigure3 verifies the cache combinations track their signatures.
func (r *Report) checkFigure3(bench suite.Benchmark, a *analysis.Analysis) {
	basis, err := bench.Basis()
	if err != nil {
		r.add("Figure3", false, "basis: %v", err)
		return
	}
	worst := 0.0
	for i, def := range a.Defs {
		sig := bench.Signatures[i]
		combo, err := def.Rounded(bench.Config.RoundTol).Combine(a.Result.Noise.Kept)
		if err != nil {
			r.add("Figure3/"+sig.Name, false, "%v", err)
			continue
		}
		want, err := basis.Expand(sig.Coeffs)
		if err != nil {
			r.add("Figure3/"+sig.Name, false, "%v", err)
			continue
		}
		for i := range combo {
			if d := math.Abs(combo[i] - want[i]); d > worst {
				worst = d
			}
		}
	}
	r.add("Figure3", worst < 0.05, "max |combination - signature| = %.3g per access", worst)
}

// checkAlphaSensitivity verifies the Section V-E claim on real data.
func (r *Report) checkAlphaSensitivity(bench suite.Benchmark, res *core.Result) {
	sweep := core.DecadeSweep(1e-5, 1e-1, 9)
	sens, err := core.AlphaSensitivity(res.Projection.X, res.Projection.Order, sweep)
	if err != nil {
		r.add("SectionVE", false, "%v", err)
		return
	}
	pass := sens.StableCount >= 6 && sens.StableLo <= bench.Config.Alpha && bench.Config.Alpha <= sens.StableHi
	r.add("SectionVE", pass, "selection stable for %d/%d alphas in [%.0e, %.0e]",
		sens.StableCount, len(sweep), sens.StableLo, sens.StableHi)
}

// Markdown renders the report.
func (r *Report) Markdown() string {
	var b strings.Builder
	b.WriteString("# Reproduction report\n\n")
	failed := r.Failed()
	if len(failed) == 0 {
		fmt.Fprintf(&b, "**All %d checks pass.**\n\n", len(r.Checks))
	} else {
		fmt.Fprintf(&b, "**%d of %d checks FAIL.**\n\n", len(failed), len(r.Checks))
	}
	b.WriteString("| Check | Result | Detail |\n|---|---|---|\n")
	for _, c := range r.Checks {
		status := "PASS"
		if !c.Pass {
			status = "**FAIL**"
		}
		fmt.Fprintf(&b, "| %s | %s | %s |\n", c.ID, status, c.Detail)
	}
	return b.String()
}
