package core

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestPresetName(t *testing.T) {
	cases := map[string]string{
		"DP Ops.":                      "PAPI_DP_OPS",
		"L2 Misses.":                   "PAPI_L2_MISSES",
		"Conditional Branches Taken.":  "PAPI_CONDITIONAL_BRANCHES_TAKEN",
		"HP Add and Sub Ops.":          "PAPI_HP_ADD_AND_SUB_OPS",
		"weird---name  with   spaces.": "PAPI_WEIRD_NAME_WITH_SPACES",
	}
	for in, want := range cases {
		if got := PresetName(in); got != want {
			t.Errorf("PresetName(%q) = %q want %q", in, got, want)
		}
	}
}

func TestToPresetSimpleSum(t *testing.T) {
	d := &MetricDefinition{
		Metric: "DP Ops.",
		Terms: []Term{
			{Event: "SCALAR", Coeff: 1},
			{Event: "P128", Coeff: 2},
			{Event: "P256", Coeff: 4.0000001},
			{Event: "IRRELEVANT", Coeff: 1e-9},
		},
	}
	p, err := d.ToPreset(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "PAPI_DP_OPS" {
		t.Fatalf("name = %q", p.Name)
	}
	if len(p.Events) != 3 {
		t.Fatalf("events = %v (near-zero term must vanish)", p.Events)
	}
	// The postfix formula must evaluate to 1*a + 2*b + 4*c.
	got, err := EvalPostfix(p.Postfix, []float64{10, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	if got != 10+40+120 {
		t.Fatalf("postfix evaluates to %v want 170 (formula %q)", got, p.Postfix)
	}
}

func TestToPresetWithNegativeTerms(t *testing.T) {
	d := &MetricDefinition{
		Metric: "L2 Misses.",
		Terms: []Term{
			{Event: "L1_MISS", Coeff: 1.0001},
			{Event: "L2_HIT", Coeff: -0.9998},
		},
	}
	p, err := d.ToPreset(0.05)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EvalPostfix(p.Postfix, []float64{100, 60})
	if err != nil {
		t.Fatal(err)
	}
	if got != 40 {
		t.Fatalf("postfix = %v want 40 (formula %q)", got, p.Postfix)
	}
}

func TestToPresetLeadingNegative(t *testing.T) {
	d := &MetricDefinition{
		Metric: "Weird.",
		Terms: []Term{
			{Event: "A", Coeff: -1},
			{Event: "B", Coeff: 1},
		},
	}
	p, err := d.ToPreset(0.05)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EvalPostfix(p.Postfix, []float64{30, 100})
	if err != nil {
		t.Fatal(err)
	}
	if got != 70 {
		t.Fatalf("leading negative = %v want 70 (formula %q)", got, p.Postfix)
	}
}

func TestToPresetRejectsEmpty(t *testing.T) {
	d := &MetricDefinition{
		Metric:        "Conditional Branches Executed.",
		Terms:         []Term{{Event: "A", Coeff: 1e-16}},
		BackwardError: 1,
	}
	if _, err := d.ToPreset(0.05); err == nil {
		t.Fatalf("all-zero definition must not become a preset")
	}
}

func TestFormatPresets(t *testing.T) {
	defs := []*MetricDefinition{
		{
			Metric:        "DP Ops.",
			Terms:         []Term{{Event: "E1", Coeff: 1}, {Event: "E2", Coeff: 2}},
			BackwardError: 1e-16,
		},
		{
			Metric:        "DP FMA Instrs.",
			Terms:         []Term{{Event: "E1", Coeff: 0.8}},
			BackwardError: 0.236,
		},
	}
	out := FormatPresets(defs, 0.05, 1e-6)
	if !strings.Contains(out, "PRESET,PAPI_DP_OPS,DERIVED_POSTFIX,") {
		t.Fatalf("composable preset missing: %q", out)
	}
	if !strings.Contains(out, "# PAPI_DP_FMA_INSTRS not composable") {
		t.Fatalf("non-composable comment missing: %q", out)
	}
	if !strings.Contains(out, "E1,E2") {
		t.Fatalf("event list missing: %q", out)
	}
}

func TestParsePresetsRoundTrip(t *testing.T) {
	defs := []*MetricDefinition{
		{
			Metric:        "DP Ops.",
			Terms:         []Term{{Event: "E1", Coeff: 1}, {Event: "E2", Coeff: 2}},
			BackwardError: 1e-16,
		},
		{
			Metric:        "L2 Misses.",
			Terms:         []Term{{Event: "A", Coeff: 1}, {Event: "B", Coeff: -1}},
			BackwardError: 1e-16,
		},
		{
			Metric:        "DP FMA Instrs.",
			Terms:         []Term{{Event: "E1", Coeff: 0.8}},
			BackwardError: 0.236, // becomes a comment, not a preset
		},
	}
	text := FormatPresets(defs, 0.05, 1e-6)
	presets, err := ParsePresets(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(presets) != 2 {
		t.Fatalf("parsed %d presets, want 2", len(presets))
	}
	if presets[0].Name != "PAPI_DP_OPS" || len(presets[0].Events) != 2 {
		t.Fatalf("first preset wrong: %+v", presets[0])
	}
	v, err := presets[0].Evaluate([]float64{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	if v != 50 {
		t.Fatalf("evaluated = %v want 50", v)
	}
	v, err = presets[1].Evaluate([]float64{100, 30})
	if err != nil {
		t.Fatal(err)
	}
	if v != 70 {
		t.Fatalf("subtraction preset = %v want 70", v)
	}
}

func TestParsePresetsErrors(t *testing.T) {
	if _, err := ParsePresets("PRESET,ONLY,THREE"); err == nil {
		t.Fatalf("short line should fail")
	}
	if _, err := ParsePresets("PRESET,X,WRONG_KIND,N0|,E"); err == nil {
		t.Fatalf("wrong derived kind should fail")
	}
	if _, err := ParsePresets("PRESET,X,DERIVED_POSTFIX,N5|,E"); err == nil {
		t.Fatalf("formula referencing missing operand should fail")
	}
	// Comments and blanks are fine.
	out, err := ParsePresets("# a comment\n\nPRESET,X,DERIVED_POSTFIX,N0|,E\n")
	if err != nil || len(out) != 1 {
		t.Fatalf("comment handling broken: %v %v", out, err)
	}
}

func TestPresetEvaluateLengthCheck(t *testing.T) {
	p := &Preset{Name: "X", Postfix: "N0|", Events: []string{"E"}}
	if _, err := p.Evaluate([]float64{1, 2}); err == nil {
		t.Fatalf("wrong count length should fail")
	}
}

func TestEvalPostfixErrors(t *testing.T) {
	if _, err := EvalPostfix("+|", []float64{1}); err == nil {
		t.Fatalf("underflow should fail")
	}
	if _, err := EvalPostfix("N0|N1|", []float64{1, 2}); err == nil {
		t.Fatalf("leftover stack should fail")
	}
	if _, err := EvalPostfix("N9|", []float64{1}); err == nil {
		t.Fatalf("bad operand index should fail")
	}
	if _, err := EvalPostfix("xyz|", nil); err == nil {
		t.Fatalf("bad token should fail")
	}
	if _, err := EvalPostfix("N0|SWAP|", []float64{1}); err == nil {
		t.Fatalf("SWAP underflow should fail")
	}
}

// TestEvalPostfixRejectsMalformedTokens: an operand is N followed by ASCII
// digits only, a literal is a whole finite float token, and a non-finite
// result is an error — whether a literal, an overflow or a count made it.
func TestEvalPostfixRejectsMalformedTokens(t *testing.T) {
	for _, c := range []struct {
		formula string
		values  []float64
	}{
		{"nAn|", nil},
		{"NaN|", nil},
		{"inf|", nil},
		{"-Inf|", nil},
		{"1e400|", nil},
		{"N0x|", []float64{1}},
		{"N+1|", []float64{1, 2}},
		{"N-0|", []float64{1}},
		{"N|", []float64{1}},
		{"N 0|", []float64{1}},
		{"2abc|", nil},
		{"1_000|", nil},
		{"1e308|10|*|0|*|", nil},
		{"1e308|10|*|", nil},
		{"N0|", []float64{math.Inf(1)}},
		{"N0|N1|*|", []float64{math.NaN(), 0}},
	} {
		if v, err := EvalPostfix(c.formula, c.values); err == nil {
			t.Errorf("EvalPostfix(%q, %v) = %v, want an error", c.formula, c.values, v)
		}
	}
	for _, c := range []struct {
		formula string
		want    float64
	}{
		{"N00|", 3},
		{"N1|0.25|*|", 1},
		{"1e-5|", 1e-5},
		{"-2|N0|*|", -6},
	} {
		if v, err := EvalPostfix(c.formula, []float64{3, 4}); err != nil || v != c.want {
			t.Errorf("EvalPostfix(%q) = %v, %v, want %v", c.formula, v, err, c.want)
		}
	}
}

// Property: for any integer coefficients in [-4, 4] \ {0}, the emitted
// postfix evaluates to the same value as the direct linear combination.
func TestPresetPostfixMatchesCombinationProperty(t *testing.T) {
	f := func(c1, c2, c3 int8, v1, v2, v3 uint8) bool {
		coeffs := []float64{float64(c1%5) + 0.0, float64(c2%5) + 0.0, float64(c3%5) + 0.0}
		values := []float64{float64(v1), float64(v2), float64(v3)}
		d := &MetricDefinition{Metric: "P."}
		var want float64
		for i, c := range coeffs {
			d.Terms = append(d.Terms, Term{Event: string(rune('A' + i)), Coeff: c})
			want += c * values[i]
		}
		p, err := d.ToPreset(0.01)
		if err != nil {
			// All coefficients were zero: acceptable.
			return coeffs[0] == 0 && coeffs[1] == 0 && coeffs[2] == 0
		}
		// Evaluate with only the surviving events' values, in order.
		var kept []float64
		for i, c := range coeffs {
			if c != 0 {
				kept = append(kept, values[i])
			}
		}
		got, err := EvalPostfix(p.Postfix, kept)
		if err != nil {
			return false
		}
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
