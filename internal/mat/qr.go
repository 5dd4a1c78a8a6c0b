package mat

import (
	"fmt"
	"math"
)

// QR holds a Householder QR factorization A = Q*R of an m-by-n matrix with
// m >= n. Q is m-by-m orthogonal (stored implicitly as Householder
// reflectors), and R is m-by-n upper triangular.
type QR struct {
	qr   *Dense    // packed factors: R in the upper triangle, reflectors below
	tau  []float64 // scalar factors of the reflectors
	m, n int
}

// Factorize computes the QR factorization of a. It panics if a has fewer rows
// than columns; use LeastSquares for the general solve path.
func Factorize(a *Dense) *QR {
	m, n := a.Dims()
	if m < n {
		panic(fmt.Sprintf("mat: QR requires rows >= cols, got %dx%d", m, n))
	}
	qr := a.Clone()
	tau := make([]float64, n)
	for k := 0; k < n; k++ {
		HouseholderStep(qr, k, tau)
	}
	return &QR{qr: qr, tau: tau, m: m, n: n}
}

// HouseholderStep performs one Householder elimination step on a packed
// working matrix: it generates the reflector annihilating column k below row
// k, stores it in place, records tau[k], and applies it to the trailing
// columns. Factorize and QRCP drive it, and so does the specialized QRCP of
// the analysis pipeline.
func HouseholderStep(packed *Dense, k int, tau []float64) {
	m, n := packed.Dims()
	alpha := packed.At(k, k)
	norm := ColNorm(packed, k, k)
	if IsZero(norm) {
		tau[k] = 0
		return
	}
	beta := -math.Copysign(norm, alpha)
	t := (beta - alpha) / beta
	scale := 1 / (alpha - beta)
	// v = [1, packed[k+1:m,k]*scale]; store tail in place, beta on diag.
	packed.Set(k, k, beta)
	for i := k + 1; i < m; i++ {
		packed.Set(i, k, packed.At(i, k)*scale)
	}
	tau[k] = t
	// Apply I - t*v*vᵀ to trailing columns [k+1, n).
	for j := k + 1; j < n; j++ {
		// w = vᵀ * packed[k:m, j]
		w := packed.At(k, j)
		for i := k + 1; i < m; i++ {
			w += packed.At(i, k) * packed.At(i, j)
		}
		w *= t
		packed.Set(k, j, packed.At(k, j)-w)
		for i := k + 1; i < m; i++ {
			packed.Set(i, j, packed.At(i, j)-w*packed.At(i, k))
		}
	}
}

// QTVec applies Qᵀ to b in place; b must have length m.
func (f *QR) QTVec(b []float64) {
	if len(b) != f.m {
		panic(fmt.Sprintf("mat: QTVec length %d, want %d", len(b), f.m))
	}
	for k := 0; k < f.n; k++ {
		t := f.tau[k]
		if IsZero(t) {
			continue
		}
		w := b[k]
		for i := k + 1; i < f.m; i++ {
			w += f.qr.At(i, k) * b[i]
		}
		w *= t
		b[k] -= w
		for i := k + 1; i < f.m; i++ {
			b[i] -= w * f.qr.At(i, k)
		}
	}
}

// Solve solves the least-squares problem min ‖A*x - b‖₂ using the
// factorization, returning x of length n. b must have length m.
// It returns an error if R is singular to working precision.
func (f *QR) Solve(b []float64) ([]float64, error) {
	return f.SolveScratch(b, make([]float64, f.m))
}

// SolveScratch is Solve with a caller-provided scratch buffer of length m for
// the Qᵀb intermediate, so repeated solves against one factorization (the
// projection stage solves once per catalog event) allocate only the solution
// vector. The factorization itself is read-only here: concurrent SolveScratch
// calls are safe as long as each goroutine owns its scratch.
func (f *QR) SolveScratch(b, scratch []float64) ([]float64, error) {
	if len(b) != f.m {
		return nil, fmt.Errorf("mat: QR solve rhs length %d, want %d", len(b), f.m)
	}
	if len(scratch) < f.m {
		return nil, fmt.Errorf("mat: QR solve scratch length %d, want >= %d", len(scratch), f.m)
	}
	c := scratch[:f.m]
	copy(c, b)
	f.QTVec(c)
	x := make([]float64, f.n)
	copy(x, c[:f.n])
	if err := f.solveRInPlace(x); err != nil {
		return nil, err
	}
	return x, nil
}

// solveRInPlace back-substitutes R*x = rhs, overwriting rhs with x.
func (f *QR) solveRInPlace(rhs []float64) error {
	for i := f.n - 1; i >= 0; i-- {
		d := f.qr.At(i, i)
		if IsZero(d) {
			return fmt.Errorf("mat: singular R at diagonal %d", i)
		}
		s := rhs[i]
		for j := i + 1; j < f.n; j++ {
			s -= f.qr.At(i, j) * rhs[j]
		}
		rhs[i] = s / d
	}
	return nil
}

// RCond estimates the reciprocal condition number of R from the ratio of the
// smallest to largest absolute diagonal entries. Zero means exactly singular.
func (f *QR) RCond() float64 {
	if f.n == 0 {
		return 1
	}
	min, max := math.Inf(1), 0.0
	for i := 0; i < f.n; i++ {
		d := math.Abs(f.qr.At(i, i))
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	if IsZero(max) {
		return 0
	}
	return min / max
}
