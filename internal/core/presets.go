package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/perfmetrics/eventlens/internal/mat"
)

// This file emits metric definitions in the PAPI preset format — the
// community impact the paper's introduction motivates: middleware like PAPI
// defines metric presets per architecture by hand; the analysis automates
// producing them.

// Preset is one auto-generated PAPI-style preset definition.
type Preset struct {
	// Name is the preset symbol, e.g. "PAPI_DP_OPS".
	Name string `json:"name"`
	// Events are the raw events referenced by the formula, in order.
	Events []string `json:"events"`
	// Postfix is the derived-event formula in PAPI's reverse-polish syntax
	// over N0, N1, ... placeholders, e.g. "N0|N1|2|*|+|".
	Postfix string `json:"postfix"`
	// BackwardError carries the definition's fitness through to the output
	// so consumers can audit the preset.
	BackwardError float64 `json:"backward_error"`
}

// PresetName derives a PAPI-style symbol from a metric name:
// "DP Ops." -> "PAPI_DP_OPS".
func PresetName(metric string) string {
	s := strings.ToUpper(metric)
	s = strings.TrimSuffix(s, ".")
	var b strings.Builder
	b.WriteString("PAPI_")
	prevUnderscore := false
	for _, r := range s {
		switch {
		case r >= 'A' && r <= 'Z' || r >= '0' && r <= '9':
			b.WriteRune(r)
			prevUnderscore = false
		default:
			if !prevUnderscore {
				b.WriteByte('_')
				prevUnderscore = true
			}
		}
	}
	return strings.TrimSuffix(b.String(), "_")
}

// ToPreset converts a metric definition into a PAPI-style preset, keeping
// only terms whose coefficient survives rounding with roundTol (near-zero
// coefficients vanish; near-integer ones become exact). It returns an error
// if no terms survive — a preset with an empty formula would be worse than
// no preset, and the paper's analysis flags such metrics as non-composable
// anyway.
func (d *MetricDefinition) ToPreset(roundTol float64) (*Preset, error) {
	rounded := d.Rounded(roundTol)
	terms := rounded.NonZeroTerms()
	if len(terms) == 0 {
		return nil, fmt.Errorf("core: metric %q has no surviving terms (backward error %.3g); not composable",
			d.Metric, d.BackwardError)
	}
	p := &Preset{
		Name:          PresetName(d.Metric),
		BackwardError: d.BackwardError,
	}
	var b strings.Builder
	for i, t := range terms {
		p.Events = append(p.Events, t.Event)
		coeff := t.Coeff
		neg := coeff < 0
		if neg {
			coeff = -coeff
		}
		// Push the operand (scaled if needed).
		fmt.Fprintf(&b, "N%d|", i)
		if !mat.ExactEq(coeff, 1) {
			fmt.Fprintf(&b, "%s|*|", trimFloat(coeff))
		}
		// Combine with the running sum.
		if i > 0 {
			if neg {
				b.WriteString("-|")
			} else {
				b.WriteString("+|")
			}
		} else if neg {
			// Leading negative term: negate via 0 - x.
			b.WriteString("0|SWAP|-|")
		}
	}
	p.Postfix = b.String()
	return p, nil
}

// FormatPresets renders presets as lines of the papi_events.csv flavour:
//
//	PRESET,PAPI_DP_OPS,DERIVED_POSTFIX,N0|2|*|N1|+|,FP_ARITH...,FP_ARITH...
//
// Metrics that fail the composability threshold are emitted as comments so
// the consumer sees why they are absent.
func FormatPresets(defs []*MetricDefinition, roundTol, maxBackwardError float64) string {
	var b strings.Builder
	for _, d := range defs {
		if !d.Composable(maxBackwardError) {
			fmt.Fprintf(&b, "# %s not composable on this architecture (backward error %.3g)\n",
				PresetName(d.Metric), d.BackwardError)
			continue
		}
		p, err := d.ToPreset(roundTol)
		if err != nil {
			fmt.Fprintf(&b, "# %s: %v\n", PresetName(d.Metric), err)
			continue
		}
		fmt.Fprintf(&b, "PRESET,%s,DERIVED_POSTFIX,%s,%s\n",
			p.Name, p.Postfix, strings.Join(p.Events, ","))
	}
	return b.String()
}

// PresetFile renders a benchmark's preset file, as `analyze -presets` prints
// it and the daemon's /v1/presets serves it: a header naming the platform
// and the benchmark, then FormatPresets at ComposableThreshold.
func PresetFile(platform, benchmark string, defs []*MetricDefinition, roundTol float64) string {
	return fmt.Sprintf("# auto-generated presets for %s (%s benchmark)\n", platform, benchmark) +
		FormatPresets(defs, roundTol, ComposableThreshold)
}

// ParsePresets parses preset definition lines (the FormatPresets output
// format) back into Presets, skipping comments and blank lines. Malformed
// PRESET lines are an error — a silently dropped preset is a silently
// missing metric.
func ParsePresets(text string) ([]*Preset, error) {
	var out []*Preset
	for lineNo, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) < 5 || parts[0] != "PRESET" || parts[2] != "DERIVED_POSTFIX" {
			return nil, fmt.Errorf("core: line %d: malformed preset %q", lineNo+1, line)
		}
		p := &Preset{
			Name:    parts[1],
			Postfix: parts[3],
			Events:  parts[4:],
		}
		// Sanity-check the formula against the declared operand count.
		probe := make([]float64, len(p.Events))
		if _, err := EvalPostfix(p.Postfix, probe); err != nil {
			return nil, fmt.Errorf("core: line %d: preset %s formula invalid: %v", lineNo+1, p.Name, err)
		}
		out = append(out, p)
	}
	return out, nil
}

// Evaluate computes the preset's metric value from raw event counts, in the
// order of the preset's Events list.
func (p *Preset) Evaluate(counts []float64) (float64, error) {
	if len(counts) != len(p.Events) {
		return 0, fmt.Errorf("core: preset %s needs %d counts, got %d", p.Name, len(p.Events), len(counts))
	}
	return EvalPostfix(p.Postfix, counts)
}

// EvalPostfix evaluates a preset's postfix formula against raw event counts,
// mapping N<i> to values[i]. It exists so tests (and cautious users) can
// verify an emitted preset reproduces the metric it encodes. Supported
// tokens: N<i> (N followed by ASCII digits only), finite numeric literals
// (the whole token, as strconv.ParseFloat reads it, with no digit
// separators), +, -, *, SWAP. A formula whose result is not finite —
// through overflow, or a non-finite count — is an error.
func EvalPostfix(postfix string, values []float64) (float64, error) {
	var stack []float64
	push := func(v float64) { stack = append(stack, v) }
	pop := func() (float64, error) {
		if len(stack) == 0 {
			return 0, fmt.Errorf("core: postfix stack underflow")
		}
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return v, nil
	}
	for _, tok := range strings.Split(strings.TrimSuffix(postfix, "|"), "|") {
		switch {
		case tok == "":
			continue
		case tok == "+" || tok == "-" || tok == "*":
			b2, err := pop()
			if err != nil {
				return 0, err
			}
			a, err := pop()
			if err != nil {
				return 0, err
			}
			switch tok {
			case "+":
				push(a + b2)
			case "-":
				push(a - b2)
			case "*":
				push(a * b2)
			}
		case tok == "SWAP":
			b2, err := pop()
			if err != nil {
				return 0, err
			}
			a, err := pop()
			if err != nil {
				return 0, err
			}
			push(b2)
			push(a)
		case strings.HasPrefix(tok, "N"):
			// Atoi alone would accept a sign.
			idx, err := strconv.Atoi(tok[1:])
			if err != nil || strings.TrimLeft(tok[1:], "0123456789") != "" || idx >= len(values) {
				return 0, fmt.Errorf("core: bad operand %q", tok)
			}
			push(values[idx])
		default:
			// ParseFloat also reads Go's digit separators, which no preset
			// literal holds.
			v, err := strconv.ParseFloat(tok, 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || strings.Contains(tok, "_") {
				return 0, fmt.Errorf("core: bad token %q", tok)
			}
			push(v)
		}
	}
	if len(stack) != 1 {
		return 0, fmt.Errorf("core: postfix left %d values on the stack", len(stack))
	}
	// +, - and * carry a non-finite operand into their result, and every
	// value pushed reaches the one left, so checking it checks them all.
	if v := stack[0]; math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("core: postfix result %v is not finite", v)
	}
	return stack[0], nil
}
