package mat

import (
	"math"
	"testing"
)

func TestExactEq(t *testing.T) {
	if !ExactEq(1.5, 1.5) || ExactEq(1.5, 1.5000001) {
		t.Error("ExactEq mismatch on plain values")
	}
	if !ExactEq(0, math.Copysign(0, -1)) {
		t.Error("ExactEq must treat +0 and -0 as equal (IEEE ==)")
	}
	if ExactEq(math.NaN(), math.NaN()) {
		t.Error("ExactEq(NaN, NaN) must be false")
	}
}

func TestIsZero(t *testing.T) {
	if !IsZero(0) || !IsZero(math.Copysign(0, -1)) {
		t.Error("IsZero must accept zeros of either sign")
	}
	if IsZero(math.SmallestNonzeroFloat64) || IsZero(math.NaN()) {
		t.Error("IsZero must reject nonzero values and NaN")
	}
}
