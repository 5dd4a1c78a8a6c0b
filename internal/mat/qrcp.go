package mat

// QRCPResult records the outcome of a column-pivoted QR factorization.
type QRCPResult struct {
	// Perm is the permutation array π: Perm[i] is the index (into the
	// original matrix) of the column that ended up in position i. The first
	// Rank entries identify a linearly independent column subset.
	Perm []int
	// Rank is the numerical rank revealed by the factorization.
	Rank int
	// R is the upper-triangular factor of A[:, Perm] (m-by-n, m >= n rows
	// kept as n-by-n upper triangle).
	R *Dense
}

// QRCP computes the classical column-pivoted QR factorization of a
// (Algorithm 1 in the paper): at every step the trailing column with the
// largest remaining 2-norm is swapped into the pivot position. The rank is
// determined by comparing each pivot's residual norm against
// tol * (largest initial column norm); pass tol <= 0 for a machine-precision
// default.
//
// The input matrix is not modified.
func QRCP(a *Dense, tol float64) *QRCPResult {
	m, n := a.Dims()
	if tol <= 0 {
		tol = float64(max(m, n)) * 1e-14
	}
	work := a.Clone()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	colNorms := make([]float64, n)
	maxNorm := 0.0
	for j := 0; j < n; j++ {
		colNorms[j] = ColNorm(work, 0, j)
		if colNorms[j] > maxNorm {
			maxNorm = colNorms[j]
		}
	}
	threshold := tol * maxNorm
	tau := make([]float64, min(m, n))
	rank := 0
	steps := min(m, n)
	for k := 0; k < steps; k++ {
		// Recompute trailing norms exactly: the downdating formula is
		// cheaper but loses accuracy; our matrices are small enough.
		pivot, best := -1, threshold
		for j := k; j < n; j++ {
			nrm := ColNorm(work, k, j)
			colNorms[j] = nrm
			if nrm > best {
				best = nrm
				pivot = j
			}
		}
		if pivot < 0 {
			break
		}
		work.SwapCols(k, pivot)
		perm[k], perm[pivot] = perm[pivot], perm[k]
		colNorms[k], colNorms[pivot] = colNorms[pivot], colNorms[k]
		HouseholderStep(work, k, tau)
		rank++
	}
	r := NewDense(min(m, n), n)
	for i := 0; i < r.Rows(); i++ {
		for j := i; j < n; j++ {
			r.Set(i, j, work.At(i, j))
		}
	}
	return &QRCPResult{Perm: perm, Rank: rank, R: r}
}

// ColNorm returns ‖a[row:m, col]‖₂ in place, bitwise equal to Norm2 over a
// copy of the column segment.
func ColNorm(a *Dense, row, col int) float64 {
	scale, ssq := 0.0, 1.0
	for i := row; i < a.rows; i++ {
		scale, ssq = ssqStep(scale, ssq, a.At(i, col))
	}
	return ssqNorm(scale, ssq)
}
