package mat

import (
	"fmt"
	"math"
)

// LSResult is the outcome of a least-squares solve.
type LSResult struct {
	// X is the solution vector (length = columns of A).
	X []float64
	// Residual is ‖A*X - b‖₂.
	Residual float64
	// BackwardError is the normwise backward error
	// ‖A*X - b‖₂ / (‖A‖₂·‖X‖₂ + ‖b‖₂), the fitness measure used throughout
	// the paper (Eq. 5).
	BackwardError float64
}

// LeastSquares solves min ‖A*x - b‖₂. Well-conditioned overdetermined (or
// square) systems go through Householder QR; rank-deficient or
// underdetermined systems fall back to the SVD pseudo-inverse, which returns
// the minimum-norm solution. b must have length A.Rows().
func LeastSquares(a *Dense, b []float64) (*LSResult, error) {
	m, n := a.Dims()
	if len(b) != m {
		return nil, fmt.Errorf("mat: least squares rhs length %d, want %d", len(b), m)
	}
	if n == 0 {
		return nil, fmt.Errorf("mat: least squares with zero columns")
	}
	var x []float64
	useSVD := m < n
	if !useSVD {
		f := Factorize(a)
		if f.RCond() < 1e-13 {
			useSVD = true
		} else {
			var err error
			x, err = f.Solve(b)
			if err != nil {
				useSVD = true
			}
		}
	}
	if useSVD {
		x = ComputeSVD(a).PseudoSolve(b, 0)
	}
	res := ResidualNorm2(a, x, b)
	return &LSResult{
		X:             x,
		Residual:      res,
		BackwardError: BackwardError(a, x, b, res),
	}, nil
}

// BackwardError computes ‖A·x − b‖₂ / (‖A‖₂·‖x‖₂ + ‖b‖₂) given a
// precomputed residual norm. A zero denominator (empty problem) yields 0.
func BackwardError(a *Dense, x, b []float64, residual float64) float64 {
	den := SpectralNorm(a)*Norm2(x) + Norm2(b)
	if IsZero(den) {
		return 0
	}
	return residual / den
}

// SpectralNorm returns the matrix 2-norm ‖A‖₂ (largest singular value),
// computed by power iteration on AᵀA with an SVD fallback when the iteration
// stagnates.
func SpectralNorm(a *Dense) float64 {
	m, n := a.Dims()
	if m == 0 || n == 0 {
		return 0
	}
	// Deterministic start vector: the column of largest norm direction.
	v := make([]float64, n)
	for j := 0; j < n; j++ {
		v[j] = 1 + float64(j%7)*0.1
	}
	nv := Norm2(v)
	for i := range v {
		v[i] /= nv
	}
	prev := 0.0
	for iter := 0; iter < 200; iter++ {
		w := MatTVec(a, MatVec(a, v))
		nw := Norm2(w)
		if IsZero(nw) {
			return 0
		}
		for i := range w {
			w[i] /= nw
		}
		v = w
		sigma := math.Sqrt(nw)
		if math.Abs(sigma-prev) <= 1e-12*math.Max(1, sigma) {
			return sigma
		}
		prev = sigma
	}
	// Stagnation (pathological start vector): do it exactly.
	svd := ComputeSVD(a)
	if len(svd.S) == 0 {
		return 0
	}
	return svd.S[0]
}

// FrobeniusNorm returns ‖A‖_F.
func FrobeniusNorm(a *Dense) float64 {
	return Norm2(a.data)
}
