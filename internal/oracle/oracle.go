// Package oracle cross-checks the analysis pipeline against independent
// reference implementations and metamorphic invariants, so refactors and
// performance work on the numerics (internal/mat, internal/core) can be
// verified mechanically instead of trusted.
//
// Two kinds of verification are provided:
//
//   - Differential checks (checks.go): mat.QRCP, the Householder QR solver
//     and core.Projector are compared against a textbook modified
//     Gram–Schmidt QRCP (gsqr.go) and an SVD least-squares solver built on a
//     Jacobi eigendecomposition of AᵀA (eigsvd.go) — deliberately different
//     algorithms, so a shared bug is vanishingly unlikely — on deterministic
//     randomized problems (problems.go), to configurable ulp/relative
//     tolerances.
//
//   - Metamorphic checks (metamorphic.go): properties of the whole pipeline
//     that must hold under input transformations — scaling, event
//     permutation, sub-threshold jitter, and worker-count changes — run
//     against every suite benchmark.
//
// cmd/verify drives both; `go test ./internal/oracle` runs reduced versions.
package oracle

import (
	"fmt"
	"math"

	"github.com/perfmetrics/eventlens/internal/mat"
)

// Tol is a comparison tolerance. A pair of values passes if it is within Abs,
// OR within Rel relative to the larger magnitude, OR within ULP units in the
// last place. Zero fields disable that criterion (a Tol with all three zero
// accepts only exact equality).
type Tol struct {
	Rel float64
	Abs float64
	ULP uint64
}

// DefaultTol is the agreement tolerance for well-conditioned differential
// checks: the oracles run the same arithmetic in a different order, so
// agreement to ~1e3 ulps (about 2e-13 relative) is expected; disagreement
// beyond 1e-9 relative means an algorithmic bug, not rounding.
func DefaultTol() Tol { return Tol{Rel: 1e-9, Abs: 1e-12} }

// ULPDiff returns the distance between a and b in units in the last place:
// the number of representable float64 values strictly between them, plus one
// if they differ. NaNs and opposite-sign infinities are infinitely far apart.
func ULPDiff(a, b float64) uint64 {
	if mat.ExactEq(a, b) {
		return 0 // covers +0 == -0
	}
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.MaxUint64
	}
	// Map the floats onto a monotone integer scale: negative floats reverse
	// their bit order, so ordered floats have ordered keys.
	ka := ulpKey(a)
	kb := ulpKey(b)
	if ka > kb {
		ka, kb = kb, ka
	}
	d := uint64(kb - ka)
	return d
}

// ulpKey maps a float64 onto a monotonically increasing signed integer scale.
func ulpKey(f float64) int64 {
	b := int64(math.Float64bits(f))
	if b < 0 {
		return math.MinInt64 - b // reverse the negative range
	}
	return b
}

// Close reports whether a and b agree within t.
func (t Tol) Close(a, b float64) bool {
	if mat.ExactEq(a, b) {
		return true
	}
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	d := math.Abs(a - b)
	if t.Abs > 0 && d <= t.Abs {
		return true
	}
	if t.Rel > 0 && d <= t.Rel*math.Max(math.Abs(a), math.Abs(b)) {
		return true
	}
	if t.ULP > 0 && ULPDiff(a, b) <= t.ULP {
		return true
	}
	return false
}

// CheckVec returns a descriptive error for the first elementwise
// disagreement between got and want, or nil.
func (t Tol) CheckVec(what string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !t.Close(got[i], want[i]) {
			return fmt.Errorf("%s: element %d = %.17g, want %.17g (rel %.2e, %d ulp)",
				what, i, got[i], want[i], RelDiff(got[i], want[i]), ULPDiff(got[i], want[i]))
		}
	}
	return nil
}

// RelDiff returns |a-b| / max(|a|, |b|), or 0 when both are zero.
func RelDiff(a, b float64) float64 {
	return RelDiffScaled(a, b, 0)
}

// RelDiffScaled is RelDiff with a problem-scale floor in the denominator, so
// the disagreement of two near-zero elements of an O(scale) vector reads as
// small rather than as O(1).
func RelDiffScaled(a, b, scale float64) float64 {
	if mat.ExactEq(a, b) {
		return 0
	}
	m := math.Max(math.Max(math.Abs(a), math.Abs(b)), scale)
	if mat.IsZero(m) {
		return 0
	}
	return math.Abs(a-b) / m
}
