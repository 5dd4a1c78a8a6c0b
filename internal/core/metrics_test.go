package core

import (
	"math"
	"strings"
	"testing"

	"github.com/perfmetrics/eventlens/internal/mat"
)

// sprLikeXhat builds the 16x8 Xhat the analysis finds on the simulated
// Sapphire Rapids: one column per FP_ARITH event, each counting its width's
// non-FMA instructions once and FMA instructions twice.
func sprLikeXhat() (*mat.Dense, []string) {
	cols := make([][]float64, 8)
	names := make([]string, 8)
	widths := []string{"SCALAR", "128B_PACKED", "256B_PACKED", "512B_PACKED"}
	for p, prec := range []string{"SINGLE", "DOUBLE"} {
		for w := range widths {
			col := make([]float64, 16)
			col[p*4+w] = 1   // non-FMA dimension
			col[8+p*4+w] = 2 // FMA dimension, counted twice
			idx := p*4 + w
			cols[idx] = col
			names[idx] = "FP_ARITH_INST_RETIRED:" + widths[w] + "_" + prec
		}
	}
	return mat.FromColumns(cols), names
}

func TestDefineMetricExactComposition(t *testing.T) {
	xhat, names := sprLikeXhat()
	sigs := CPUFlopsSignatures()
	// "DP Ops." (index 4) composes exactly: coefficients (1,2,4,8) on the
	// four DOUBLE events, ~0 on SINGLE, error ~1e-16 (paper Table V).
	def, err := DefineMetric(xhat, names, sigs[4])
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"FP_ARITH_INST_RETIRED:SCALAR_DOUBLE":      1,
		"FP_ARITH_INST_RETIRED:128B_PACKED_DOUBLE": 2,
		"FP_ARITH_INST_RETIRED:256B_PACKED_DOUBLE": 4,
		"FP_ARITH_INST_RETIRED:512B_PACKED_DOUBLE": 8,
	}
	for _, term := range def.Terms {
		w := want[term.Event] // zero for SINGLE events
		if math.Abs(term.Coeff-w) > 1e-10 {
			t.Errorf("%s coeff = %v want %v", term.Event, term.Coeff, w)
		}
	}
	if def.BackwardError > 1e-12 {
		t.Fatalf("DP Ops backward error = %v want ~0", def.BackwardError)
	}
	if !def.Composable(1e-6) {
		t.Fatalf("DP Ops should be composable")
	}
}

func TestDefineMetricFMAReproducesPaperNumbers(t *testing.T) {
	// The paper's Table V headline: because FP_ARITH counts FMA twice and
	// no FMA-only event exists, the SP/DP FMA Instrs. metrics come out with
	// coefficient 0.8 on every event of the precision and backward error
	// 2.36e-1.
	xhat, names := sprLikeXhat()
	for _, idx := range []int{2, 5} { // SP FMA Instrs., DP FMA Instrs.
		sig := CPUFlopsSignatures()[idx]
		def, err := DefineMetric(xhat, names, sig)
		if err != nil {
			t.Fatal(err)
		}
		prec := "SINGLE"
		if idx == 5 {
			prec = "DOUBLE"
		}
		for _, term := range def.Terms {
			want := 0.0
			if strings.HasSuffix(term.Event, prec) {
				want = 0.8
			}
			if math.Abs(term.Coeff-want) > 1e-10 {
				t.Errorf("%s: %s coeff = %v want %v", sig.Name, term.Event, term.Coeff, want)
			}
		}
		if math.Abs(def.BackwardError-0.236) > 0.002 {
			t.Errorf("%s backward error = %v want ~0.236", sig.Name, def.BackwardError)
		}
		if def.Composable(1e-2) {
			t.Errorf("%s must not be composable", sig.Name)
		}
	}
}

// mi250xLikeXhat builds the 15x12 Xhat of the simulated MI250X: the ADD
// events count add and sub; MUL, TRANS and FMA are pure.
func mi250xLikeXhat() (*mat.Dense, []string) {
	var cols [][]float64
	var names []string
	// Basis order: A(H,S,D), S(H,S,D), M(H,S,D), SQ(H,S,D), F(H,S,D).
	for _, op := range []struct {
		name string
		dims []int // base indices covered per precision step
	}{
		{"ADD", []int{0, 3}}, // A and S dims
		{"MUL", []int{6}},
		{"TRANS", []int{9}},
		{"FMA", []int{12}},
	} {
		for p, prec := range []string{"16", "32", "64"} {
			col := make([]float64, 15)
			for _, d := range op.dims {
				col[d+p] = 1
			}
			cols = append(cols, col)
			names = append(names, "rocm:::SQ_INSTS_VALU_"+op.name+"_F"+prec+":device=0")
		}
	}
	return mat.FromColumns(cols), names
}

func TestDefineMetricGPUHPAddReproducesPaperNumbers(t *testing.T) {
	xhat, names := mi250xLikeXhat()
	sigs := GPUFlopsSignatures()
	// HP Add alone: 0.5 x ADD_F16, error 4.14e-1 (Table VI).
	def, err := DefineMetric(xhat, names, sigs[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, term := range def.Terms {
		want := 0.0
		if term.Event == "rocm:::SQ_INSTS_VALU_ADD_F16:device=0" {
			want = 0.5
		}
		if math.Abs(term.Coeff-want) > 1e-10 {
			t.Errorf("HP Add: %s = %v want %v", term.Event, term.Coeff, want)
		}
	}
	if math.Abs(def.BackwardError-0.414) > 0.002 {
		t.Errorf("HP Add backward error = %v want ~0.414", def.BackwardError)
	}
	// HP Add and Sub together: exactly 1 x ADD_F16, error ~0.
	def, err = DefineMetric(xhat, names, sigs[2])
	if err != nil {
		t.Fatal(err)
	}
	if def.BackwardError > 1e-12 {
		t.Errorf("HP Add+Sub error = %v want ~0", def.BackwardError)
	}
	// All DP Ops: 2 x FMA_F64 + 1 x (MUL, TRANS, ADD)_F64, error ~0.
	def, err = DefineMetric(xhat, names, sigs[5])
	if err != nil {
		t.Fatal(err)
	}
	if def.BackwardError > 1e-12 {
		t.Errorf("All DP Ops error = %v want ~0", def.BackwardError)
	}
	for _, term := range def.Terms {
		if term.Event == "rocm:::SQ_INSTS_VALU_FMA_F64:device=0" && math.Abs(term.Coeff-2) > 1e-10 {
			t.Errorf("FMA_F64 coeff = %v want 2", term.Coeff)
		}
	}
}

// branchLikeXhat builds the 5x4 Xhat of the simulated SPR branch analysis:
// BR_MISP_RETIRED, COND, COND_TAKEN, ALL_BRANCHES in basis (CE,CR,T,D,M).
func branchLikeXhat() (*mat.Dense, []string) {
	cols := [][]float64{
		{0, 0, 0, 0, 1}, // BR_MISP_RETIRED
		{0, 1, 0, 0, 0}, // COND
		{0, 0, 1, 0, 0}, // COND_TAKEN
		{0, 1, 0, 1, 0}, // ALL_BRANCHES = CR + D
	}
	return mat.FromColumns(cols), []string{
		"BR_MISP_RETIRED",
		"BR_INST_RETIRED:COND",
		"BR_INST_RETIRED:COND_TAKEN",
		"BR_INST_RETIRED:ALL_BRANCHES",
	}
}

func TestDefineMetricBranchTable(t *testing.T) {
	xhat, names := branchLikeXhat()
	sigs := BranchSignatures()
	// Unconditional Branches = ALL_BRANCHES - COND, error ~0 (Table VII).
	def, err := DefineMetric(xhat, names, sigs[0])
	if err != nil {
		t.Fatal(err)
	}
	coeff := map[string]float64{}
	for _, term := range def.Terms {
		coeff[term.Event] = term.Coeff
	}
	if math.Abs(coeff["BR_INST_RETIRED:ALL_BRANCHES"]-1) > 1e-10 ||
		math.Abs(coeff["BR_INST_RETIRED:COND"]+1) > 1e-10 {
		t.Fatalf("unconditional branches combination wrong: %v", coeff)
	}
	if def.BackwardError > 1e-12 {
		t.Fatalf("unconditional error = %v", def.BackwardError)
	}
	// Conditional Branches Executed: not composable, error exactly 1.
	def, err = DefineMetric(xhat, names, sigs[6])
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(def.BackwardError-1) > 1e-10 {
		t.Fatalf("executed-branches error = %v want 1 (paper Table VII)", def.BackwardError)
	}
	for _, term := range def.Terms {
		if math.Abs(term.Coeff) > 1e-10 {
			t.Fatalf("executed-branches coefficients should be ~0: %v", term)
		}
	}
}

func TestDefineMetricErrors(t *testing.T) {
	xhat, names := branchLikeXhat()
	if _, err := DefineMetric(xhat, names[:2], BranchSignatures()[0]); err == nil {
		t.Fatalf("column/name mismatch should fail")
	}
	if _, err := DefineMetric(xhat, names, Signature{Name: "bad", Coeffs: []float64{1}}); err == nil {
		t.Fatalf("signature dimension mismatch should fail")
	}
	if _, err := DefineMetric(mat.NewDense(5, 0), nil, BranchSignatures()[0]); err == nil {
		t.Fatalf("empty selection should fail")
	}
}

func TestRounded(t *testing.T) {
	d := &MetricDefinition{
		Metric: "L1 Hits.",
		Terms: []Term{
			{Event: "A", Coeff: 0.9996},
			{Event: "B", Coeff: -4.21e-4},
			{Event: "C", Coeff: 1.2},
			{Event: "D", Coeff: 0.4},
		},
	}
	r := d.Rounded(0.05)
	if r.Terms[0].Coeff != 1 {
		t.Fatalf("0.9996 should round to 1, got %v", r.Terms[0].Coeff)
	}
	if r.Terms[1].Coeff != 0 {
		t.Fatalf("-4e-4 should round to 0, got %v", r.Terms[1].Coeff)
	}
	if r.Terms[2].Coeff != 1.2 {
		t.Fatalf("1.2 exceeds the tolerance and must be kept, got %v", r.Terms[2].Coeff)
	}
	if r.Terms[3].Coeff != 0.4 {
		t.Fatalf("0.4 must be kept, got %v", r.Terms[3].Coeff)
	}
	if len(r.NonZeroTerms()) != 3 {
		t.Fatalf("NonZeroTerms = %d want 3", len(r.NonZeroTerms()))
	}
}

// TestRoundedZeroIsPositive: a negative coefficient rounded away is +0, so
// reports print "+0" and JSON carries 0, never -0; a coefficient kept
// unrounded keeps its bits.
func TestRoundedZeroIsPositive(t *testing.T) {
	d := &MetricDefinition{Metric: "m", Terms: []Term{
		{Event: "A", Coeff: -0.0004},
		{Event: "B", Coeff: math.Copysign(0, -1)},
		{Event: "C", Coeff: -0.3},
	}}
	r := d.Rounded(0.05)
	for _, term := range r.Terms[:2] {
		if term.Coeff != 0 || math.Signbit(term.Coeff) {
			t.Errorf("%s rounded to %v (signbit %v), want +0", term.Event, term.Coeff, math.Signbit(term.Coeff))
		}
	}
	if c := r.Terms[2].Coeff; math.Float64bits(c) != math.Float64bits(-0.3) {
		t.Errorf("C = %v, want -0.3 kept", c)
	}
	if s := FormatMetricTable("rounded", []*MetricDefinition{r}); strings.Contains(s, "-0 x") {
		t.Errorf("rounded table prints a negative zero:\n%s", s)
	}
}

func TestCombine(t *testing.T) {
	d := &MetricDefinition{
		Metric: "L1 Reads.",
		Terms:  []Term{{Event: "HIT", Coeff: 1}, {Event: "MISS", Coeff: 1}},
	}
	meas := map[string][]float64{
		"HIT":  {0.9, 0.1},
		"MISS": {0.1, 0.9},
	}
	got, err := d.Combine(meas)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-1) > 1e-12 || math.Abs(got[1]-1) > 1e-12 {
		t.Fatalf("Combine = %v", got)
	}
	if _, err := d.Combine(map[string][]float64{"HIT": {1, 2}}); err == nil {
		t.Fatalf("missing event should fail")
	}
}

func TestMetricDefinitionString(t *testing.T) {
	d := &MetricDefinition{
		Metric:        "Unconditional Branches.",
		Terms:         []Term{{Event: "ALL", Coeff: 1}, {Event: "COND", Coeff: -1}},
		BackwardError: 4e-16,
	}
	s := d.String()
	if !strings.Contains(s, "- 1 x COND") {
		t.Fatalf("negative term not rendered with minus: %q", s)
	}
	if !strings.Contains(s, "error:") {
		t.Fatalf("error missing from rendering: %q", s)
	}
}
