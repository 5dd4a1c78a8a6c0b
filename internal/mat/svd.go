package mat

import (
	"math"
)

// SVD holds a thin singular value decomposition A = U * diag(S) * Vᵀ of an
// m-by-n matrix with m >= n: U is m-by-n with orthonormal columns, S holds the
// n singular values in descending order, and V is n-by-n orthogonal.
type SVD struct {
	U *Dense
	S []float64
	V *Dense
}

// jacobiMaxSweeps bounds the number of one-sided Jacobi sweeps. Convergence
// is quadratic; well-conditioned problems need far fewer.
const jacobiMaxSweeps = 60

// ComputeSVD computes the thin SVD of a using one-sided Jacobi rotations.
// For matrices with more columns than rows it factorizes the transpose and
// swaps U and V. The input is not modified.
func ComputeSVD(a *Dense) *SVD {
	m, n := a.Dims()
	if m < n {
		t := ComputeSVD(a.Transpose())
		return &SVD{U: t.V, S: t.S, V: t.U}
	}
	u := a.Clone()
	v := Identity(n)
	// One-sided Jacobi: orthogonalize pairs of columns of u, accumulating
	// the rotations in v, until all pairs are numerically orthogonal.
	eps := 1e-15
	for sweep := 0; sweep < jacobiMaxSweeps; sweep++ {
		off := 0.0
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				var alpha, beta, gamma float64
				for i := 0; i < m; i++ {
					up := u.At(i, p)
					uq := u.At(i, q)
					alpha += up * up
					beta += uq * uq
					gamma += up * uq
				}
				if IsZero(gamma) {
					continue
				}
				if math.Abs(gamma) <= eps*math.Sqrt(alpha*beta) {
					continue
				}
				off += gamma * gamma
				// Compute the Jacobi rotation that zeroes gamma.
				zeta := (beta - alpha) / (2 * gamma)
				t := math.Copysign(1, zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				rotateCols(u, p, q, c, s)
				rotateCols(v, p, q, c, s)
			}
		}
		if IsZero(off) {
			break
		}
	}
	// Singular values are the column norms of u; normalize columns.
	s := make([]float64, n)
	for j := 0; j < n; j++ {
		nrm := ColNorm(u, 0, j)
		s[j] = nrm
		if nrm > 0 {
			for i := 0; i < m; i++ {
				u.Set(i, j, u.At(i, j)/nrm)
			}
		}
	}
	// Sort descending by singular value (selection sort; n is small).
	for i := 0; i < n-1; i++ {
		maxJ := i
		for j := i + 1; j < n; j++ {
			if s[j] > s[maxJ] {
				maxJ = j
			}
		}
		if maxJ != i {
			s[i], s[maxJ] = s[maxJ], s[i]
			u.SwapCols(i, maxJ)
			v.SwapCols(i, maxJ)
		}
	}
	return &SVD{U: u, S: s, V: v}
}

// rotateCols applies the Givens rotation [c -s; s c] to columns p and q.
func rotateCols(m *Dense, p, q int, c, s float64) {
	rows := m.Rows()
	for i := 0; i < rows; i++ {
		vp := m.At(i, p)
		vq := m.At(i, q)
		m.Set(i, p, c*vp-s*vq)
		m.Set(i, q, s*vp+c*vq)
	}
}

// PseudoSolve returns the minimum-norm least-squares solution x = A⁺ b using
// the decomposition, truncating singular values below tol * S[0]
// (machine-precision default for tol <= 0).
func (d *SVD) PseudoSolve(b []float64, tol float64) []float64 {
	if tol <= 0 {
		tol = float64(max(d.U.Rows(), len(d.S))) * 1e-15
	}
	var thresh float64
	if len(d.S) > 0 {
		thresh = tol * d.S[0]
	}
	// x = V * diag(1/s) * Uᵀ * b
	utb := MatTVec(d.U, b)
	for i := range utb {
		if d.S[i] > thresh {
			utb[i] /= d.S[i]
		} else {
			utb[i] = 0
		}
	}
	return MatVec(d.V, utb)
}
