package mat

import (
	"fmt"
	"math"
)

// Dot returns the inner product of x and y, which must have equal length.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d vs %d", len(x), len(y)))
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Cosine returns the cosine of the angle between x and y, which must have
// equal length. Two zero vectors are identical (1); a zero vector against a
// nonzero one is orthogonal (0).
func Cosine(x, y []float64) float64 {
	xx, yy := Dot(x, x), Dot(y, y)
	if IsZero(xx) && IsZero(yy) {
		return 1
	}
	if IsZero(xx) || IsZero(yy) {
		return 0
	}
	return Dot(x, y) / (math.Sqrt(xx) * math.Sqrt(yy))
}

// Norm2 returns the Euclidean norm of x, guarding against overflow and
// underflow by scaling (the classical two-pass hypot-style algorithm).
func Norm2(x []float64) float64 {
	scale, ssq := 0.0, 1.0
	for _, v := range x {
		scale, ssq = ssqStep(scale, ssq, v)
	}
	return ssqNorm(scale, ssq)
}

// ssqStep folds v into the scaled sum of squares (scale, ssq), started at
// (0, 1), behind every 2-norm here: the squares are summed relative to the
// largest magnitude seen, so they neither overflow nor underflow. Zeros are
// skipped.
func ssqStep(scale, ssq, v float64) (float64, float64) {
	if IsZero(v) {
		return scale, ssq
	}
	a := math.Abs(v)
	if scale < a {
		r := scale / a
		return a, 1 + ssq*r*r
	}
	r := a / scale
	return scale, ssq + r*r
}

// ssqNorm is the 2-norm scale·√ssq of a scaled sum of squares.
func ssqNorm(scale, ssq float64) float64 {
	if IsZero(scale) {
		return 0
	}
	return scale * math.Sqrt(ssq)
}

// SubNorm2 returns ||x-y||₂ without materializing the difference vector: it
// performs exactly the operations of Norm2(SubVec(x, y)) — same scaling, same
// element order — so results are bitwise identical to the composed form while
// the temporary allocation disappears from the hot loop.
func SubNorm2(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: SubNorm2 length mismatch %d vs %d", len(x), len(y)))
	}
	scale, ssq := 0.0, 1.0
	for i, v := range x {
		scale, ssq = ssqStep(scale, ssq, v-y[i])
	}
	return ssqNorm(scale, ssq)
}

// NormInf returns the largest absolute value in x, or 0 for empty x.
func NormInf(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Axpy computes y += alpha*x in place. x and y must have equal length.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	if IsZero(alpha) {
		return
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// ScaleVec multiplies every element of x by alpha in place.
func ScaleVec(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// SubVec returns x-y as a new slice.
func SubVec(x, y []float64) []float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: SubVec length mismatch %d vs %d", len(x), len(y)))
	}
	out := make([]float64, len(x))
	for i := range x {
		out[i] = x[i] - y[i]
	}
	return out
}

// CloneVec returns a copy of x.
func CloneVec(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	return out
}

// Mean returns the arithmetic mean of x, or 0 for empty x.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// AllZero reports whether every element of x is exactly zero.
func AllZero(x []float64) bool {
	for _, v := range x {
		if !IsZero(v) {
			return false
		}
	}
	return true
}

// VecEqualApprox reports whether x and y agree elementwise within absolute
// tolerance tol.
func VecEqualApprox(x, y []float64, tol float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Abs(x[i]-y[i]) > tol {
			return false
		}
	}
	return true
}
