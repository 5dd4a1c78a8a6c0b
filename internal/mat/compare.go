package mat

import "math"

// This file holds the approved floating-point comparison helpers: the only
// places in non-test code where raw ==/!= between floats is sanctioned (the
// floateq analyzer in internal/lint enforces this). Routing every comparison
// through a named helper makes the intent auditable — exact bitwise
// agreement or an exact-zero guard — instead of leaving the reader to guess
// whether an == was a latent rounding bug.

// ExactEq reports whether a and b are exactly equal as float64 values. Use
// it where bitwise-deterministic agreement is the contract (pivot
// tie-breaks, zero-residue checks after grid rounding), never as a substitute
// for a tolerance.
func ExactEq(a, b float64) bool { return a == b }

// IsZero reports whether x is exactly zero (of either sign). It marks the
// LAPACK-style guards in the kernels — skip an empty Householder column,
// avoid dividing by a zero scale — where only exact zero is special.
func IsZero(x float64) bool { return x == 0 }

// IsIntegral reports whether x is a whole number, NaN and infinities
// excluded. Report rendering uses it to decide integer formatting, and the
// reproduction checks use it for the paper's integer-coefficient claims.
func IsIntegral(x float64) bool {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return false
	}
	return x == math.Round(x)
}
