package oracle

import (
	"fmt"
	"math"

	"github.com/perfmetrics/eventlens/internal/mat"
)

// EigSVD holds the right singular vectors and singular values of a matrix,
// computed from the Jacobi eigendecomposition of the Gram matrix AᵀA — a
// genuinely different algorithm from internal/mat's one-sided Jacobi SVD, so
// the two cannot share an implementation bug. Going through AᵀA squares the
// condition number, which is acceptable for an oracle judging
// well-conditioned randomized problems to ~1e-9 relative tolerance.
type EigSVD struct {
	// S holds the singular values in descending order.
	S []float64
	// V is the n-by-n matrix of right singular vectors (columns).
	V *mat.Dense
}

// eigMaxSweeps bounds the cyclic Jacobi eigenvalue sweeps; convergence is
// quadratic once the off-diagonal mass is small.
const eigMaxSweeps = 100

// ComputeEigSVD computes singular values and right singular vectors of a via
// the symmetric Jacobi eigendecomposition of AᵀA. The input is not modified.
func ComputeEigSVD(a *mat.Dense) *EigSVD {
	_, n := a.Dims()
	g := mat.MatTMul(a, a) // Gram matrix AᵀA, symmetric PSD
	v := mat.Identity(n)
	// Cyclic two-sided Jacobi: annihilate g[p][q] with a rotation applied
	// symmetrically, accumulating eigenvectors in v.
	for sweep := 0; sweep < eigMaxSweeps; sweep++ {
		off := 0.0
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				off += g.At(p, q) * g.At(p, q)
			}
		}
		if off <= 1e-30*math.Max(1, mat.FrobeniusNorm(g)) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := g.At(p, q)
				if mat.IsZero(apq) {
					continue
				}
				app, aqq := g.At(p, p), g.At(q, q)
				if math.Abs(apq) <= 1e-17*math.Sqrt(math.Abs(app*aqq))+1e-300 {
					continue
				}
				// Classical symmetric Jacobi rotation angles.
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(1+theta*theta))
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				applyJacobi(g, v, p, q, c, s)
			}
		}
	}
	// Eigenvalues of AᵀA are the diagonal; singular values their roots.
	type pair struct {
		lambda float64
		idx    int
	}
	pairs := make([]pair, n)
	for i := 0; i < n; i++ {
		pairs[i] = pair{g.At(i, i), i}
	}
	// Selection sort descending (n is small).
	for i := 0; i < n-1; i++ {
		best := i
		for j := i + 1; j < n; j++ {
			if pairs[j].lambda > pairs[best].lambda {
				best = j
			}
		}
		pairs[i], pairs[best] = pairs[best], pairs[i]
	}
	svd := &EigSVD{S: make([]float64, n), V: mat.NewDense(n, n)}
	for i, p := range pairs {
		if p.lambda < 0 { // rounding can leave tiny negatives
			p.lambda = 0
		}
		svd.S[i] = math.Sqrt(p.lambda)
		svd.V.SetCol(i, v.Col(p.idx))
	}
	return svd
}

// applyJacobi applies the rotation G(p,q,c,s) symmetrically to g (GᵀAG) and
// accumulates it into the eigenvector matrix v (columns).
func applyJacobi(g, v *mat.Dense, p, q int, c, s float64) {
	n := g.Rows()
	for i := 0; i < n; i++ {
		gip, giq := g.At(i, p), g.At(i, q)
		g.Set(i, p, c*gip-s*giq)
		g.Set(i, q, s*gip+c*giq)
	}
	for j := 0; j < n; j++ {
		gpj, gqj := g.At(p, j), g.At(q, j)
		g.Set(p, j, c*gpj-s*gqj)
		g.Set(q, j, s*gpj+c*gqj)
	}
	for i := 0; i < n; i++ {
		vip, viq := v.At(i, p), v.At(i, q)
		v.Set(i, p, c*vip-s*viq)
		v.Set(i, q, s*vip+c*viq)
	}
}

// eigTruncTol is the default truncation tolerance for the eigendecomposition
// oracle. Going through AᵀA maps exactly-zero singular values to roundoff of
// size ~sqrt(eps)·σ₀ ≈ 1.5e-8·σ₀, so the cut must sit well above that —
// unlike mat.SVD, whose one-sided algorithm can truncate at machine
// precision. 1e-6 cleanly separates roundoff from the O(1)-separated
// singular values of the randomized problems this oracle judges.
const eigTruncTol = 1e-6

// SVDLeastSquares returns the minimum-norm least-squares solution of
// A·x ≈ b through the eigendecomposition oracle:
//
//	x = V · diag(λᵢ > thresh ? 1/λᵢ : 0) · Vᵀ · Aᵀ·b
//
// where λᵢ = σᵢ² are the eigenvalues of AᵀA. Singular values below
// tol * σ₀ are truncated (tol <= 0 uses the oracle default).
func SVDLeastSquares(a *mat.Dense, b []float64, tol float64) ([]float64, error) {
	m, _ := a.Dims()
	if len(b) != m {
		return nil, fmt.Errorf("oracle: rhs length %d, want %d", len(b), m)
	}
	d := ComputeEigSVD(a)
	if tol <= 0 {
		tol = eigTruncTol
	}
	var thresh float64
	if len(d.S) > 0 {
		thresh = tol * d.S[0]
	}
	atb := mat.MatTVec(a, b)
	vtatb := mat.MatTVec(d.V, atb)
	for i := range vtatb {
		if d.S[i] > thresh {
			vtatb[i] /= d.S[i] * d.S[i]
		} else {
			vtatb[i] = 0
		}
	}
	return mat.MatVec(d.V, vtatb), nil
}
