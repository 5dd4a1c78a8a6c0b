package core

import (
	"math"
	"testing"
)

// FuzzEvalPostfix hammers the preset-formula evaluator with arbitrary token
// streams: it must never panic, and on success must return a finite value.
func FuzzEvalPostfix(f *testing.F) {
	f.Add("N0|2|*|N1|+|", 3.0, 4.0)
	f.Add("0|SWAP|-|", 1.0, 0.0)
	f.Add("N0|N1|-|", 10.0, 3.0)
	f.Add("garbage", 0.0, 0.0)
	f.Add("N0|N0|N0|+|+|", 5.0, 0.0)
	f.Fuzz(func(t *testing.T, formula string, a, b float64) {
		if len(formula) > 256 {
			return
		}
		v, err := EvalPostfix(formula, []float64{a, b})
		if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
			t.Fatalf("%q on %v, %v returned %v with no error", formula, a, b, v)
		}
	})
}

// FuzzRoundToGrid checks the rounding function's contract for arbitrary
// inputs: the result is within alpha/2 of the input (for positive alpha and
// finite values) and idempotent.
func FuzzRoundToGrid(f *testing.F) {
	f.Add(1.002, 0.01)
	f.Add(-0.5, 0.01)
	f.Add(0.0, 5e-4)
	f.Fuzz(func(t *testing.T, u, alpha float64) {
		if math.IsNaN(u) || math.IsInf(u, 0) || math.IsNaN(alpha) || math.IsInf(alpha, 0) {
			return
		}
		if alpha <= 0 || alpha > 1e6 || math.Abs(u) > 1e12 {
			return
		}
		r := RoundToGrid(u, alpha)
		if math.Abs(r-u) > alpha/2+1e-9*math.Abs(u) {
			t.Fatalf("R(%v, %v) = %v moved more than alpha/2", u, alpha, r)
		}
		if r2 := RoundToGrid(r, alpha); math.Abs(r2-r) > 1e-9*math.Max(1, math.Abs(r)) {
			t.Fatalf("rounding not idempotent: %v -> %v -> %v", u, r, r2)
		}
	})
}

// FuzzMaxRNMSE checks Eq. 4 never panics and respects its range contract on
// arbitrary two-repetition inputs.
func FuzzMaxRNMSE(f *testing.F) {
	f.Add(1.0, 2.0, 1.01, 1.99)
	f.Add(0.0, 0.0, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, a1, a2, b1, b2 float64) {
		for _, v := range []float64{a1, a2, b1, b2} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 || v < 0 {
				return
			}
		}
		v := MaxRNMSE([][]float64{{a1, a2}, {b1, b2}})
		if v < 0 {
			t.Fatalf("negative variability %v", v)
		}
		if a1 == b1 && a2 == b2 && v != 0 {
			t.Fatalf("identical vectors must have zero variability, got %v", v)
		}
	})
}
