package oracle

import (
	"fmt"
	"math"

	"github.com/perfmetrics/eventlens/internal/mat"
)

// GSQRCP is the outcome of the textbook column-pivoted QR oracle.
type GSQRCP struct {
	// Perm[i] is the original index of the column in pivot position i; the
	// first Rank entries identify the independent column subset.
	Perm []int
	// Rank is the numerical rank revealed by the pivot thresholding.
	Rank int
	// Q is m-by-k (k = min(m, n)) with orthonormal columns, built explicitly.
	Q *mat.Dense
	// R is k-by-n upper triangular with non-negative diagonal (the modified
	// Gram–Schmidt normalization fixes the sign convention).
	R *mat.Dense
}

// GramSchmidtQRCP computes a column-pivoted QR factorization of a by
// modified Gram–Schmidt with explicit re-orthogonalization — the textbook
// algorithm, structurally unrelated to the packed Householder implementation
// in internal/mat, which it exists to cross-check. At every step the column
// with the largest remaining 2-norm is pivoted in; columns whose residual
// norm falls below tol * (largest initial column norm) end the factorization
// (rank revealed). Pass tol <= 0 for the same machine-precision default
// mat.QRCP uses. The input is not modified.
func GramSchmidtQRCP(a *mat.Dense, tol float64) *GSQRCP {
	m, n := a.Dims()
	if tol <= 0 {
		tol = float64(max(m, n)) * 1e-14
	}
	k := min(m, n)
	// Working copy: cols[j] is the j-th column, progressively
	// orthogonalized against the chosen pivots.
	cols := make([][]float64, n)
	perm := make([]int, n)
	maxNorm := 0.0
	for j := 0; j < n; j++ {
		cols[j] = mat.CloneVec(a.Col(j))
		perm[j] = j
		if nrm := mat.Norm2(cols[j]); nrm > maxNorm {
			maxNorm = nrm
		}
	}
	threshold := tol * maxNorm
	q := mat.NewDense(m, k)
	r := mat.NewDense(k, n)
	rank := 0
	for step := 0; step < k; step++ {
		// Pivot: largest residual norm, strictly above the threshold.
		pivot, best := -1, threshold
		for j := step; j < n; j++ {
			if nrm := mat.Norm2(cols[j]); nrm > best {
				best = nrm
				pivot = j
			}
		}
		if pivot < 0 {
			break
		}
		cols[step], cols[pivot] = cols[pivot], cols[step]
		perm[step], perm[pivot] = perm[pivot], perm[step]
		// Swap the already-computed R entries above the current row too.
		for i := 0; i < step; i++ {
			rs, rp := r.At(i, step), r.At(i, pivot)
			r.Set(i, step, rp)
			r.Set(i, pivot, rs)
		}
		// Normalize the pivot column into Q.
		nrm := mat.Norm2(cols[step])
		r.Set(step, step, nrm)
		qcol := mat.CloneVec(cols[step])
		mat.ScaleVec(1/nrm, qcol)
		q.SetCol(step, qcol)
		// Orthogonalize the trailing columns against it (MGS update), with
		// one re-orthogonalization pass for numerical robustness.
		for pass := 0; pass < 2; pass++ {
			for j := step + 1; j < n; j++ {
				proj := mat.Dot(qcol, cols[j])
				if pass == 0 {
					r.Set(step, j, proj)
				} else {
					r.Set(step, j, r.At(step, j)+proj)
				}
				mat.Axpy(-proj, qcol, cols[j])
			}
			_ = pass
		}
		rank++
	}
	return &GSQRCP{Perm: perm, Rank: rank, Q: q, R: r}
}

// Residual returns ‖A[:, Perm] − Q·R‖_F / ‖A‖_F, the oracle's own
// reconstruction error — a self-check that the reference implementation is
// itself healthy before it is trusted to judge the production code.
func (g *GSQRCP) Residual(a *mat.Dense) float64 {
	m, n := a.Dims()
	permuted := mat.NewDense(m, n)
	for j := 0; j < n; j++ {
		permuted.SetCol(j, a.Col(g.Perm[j]))
	}
	diff := mat.NewDense(m, n).Sub(permuted, mat.MatMul(g.Q, g.R))
	na := mat.FrobeniusNorm(a)
	if mat.IsZero(na) {
		return mat.FrobeniusNorm(diff)
	}
	return mat.FrobeniusNorm(diff) / na
}

// GramSchmidtLeastSquares solves min ‖A·x − b‖₂ for full-column-rank A through the
// oracle factorization without pivoting: x = R⁻¹·Qᵀ·b. It is the reference
// for mat.QR.Solve and core.Projector.
func GramSchmidtLeastSquares(a *mat.Dense, b []float64) ([]float64, error) {
	m, n := a.Dims()
	if len(b) != m {
		return nil, fmt.Errorf("oracle: rhs length %d, want %d", len(b), m)
	}
	if m < n {
		return nil, fmt.Errorf("oracle: Gram–Schmidt least squares needs rows >= cols, got %dx%d", m, n)
	}
	g := gramSchmidtNoPivot(a)
	// x solves R x = Qᵀ b by back substitution.
	x := mat.MatTVec(g.Q, b)
	for i := n - 1; i >= 0; i-- {
		d := g.R.At(i, i)
		if mat.IsZero(d) || math.Abs(d) < 1e-300 {
			return nil, fmt.Errorf("oracle: rank-deficient system (R[%d,%d] = %g)", i, i, d)
		}
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= g.R.At(i, j) * x[j]
		}
		x[i] = s / d
	}
	return x[:n], nil
}

// gramSchmidtNoPivot is the unpivoted MGS factorization used by the
// least-squares oracle (pivoting would permute the solution components).
func gramSchmidtNoPivot(a *mat.Dense) *GSQRCP {
	m, n := a.Dims()
	cols := make([][]float64, n)
	for j := 0; j < n; j++ {
		cols[j] = mat.CloneVec(a.Col(j))
	}
	q := mat.NewDense(m, n)
	r := mat.NewDense(n, n)
	for step := 0; step < n; step++ {
		nrm := mat.Norm2(cols[step])
		r.Set(step, step, nrm)
		qcol := mat.CloneVec(cols[step])
		if nrm > 0 {
			mat.ScaleVec(1/nrm, qcol)
		}
		q.SetCol(step, qcol)
		for pass := 0; pass < 2; pass++ {
			for j := step + 1; j < n; j++ {
				proj := mat.Dot(qcol, cols[j])
				r.Set(step, j, r.At(step, j)+proj)
				mat.Axpy(-proj, qcol, cols[j])
			}
		}
	}
	return &GSQRCP{Q: q, R: r}
}
