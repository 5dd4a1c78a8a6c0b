package core

import (
	"math"

	"github.com/perfmetrics/eventlens/internal/mat"
)

// RoundToGrid implements the paper's rounding formula
//
//	R(u) = alpha * floor(u/alpha + 0.5)
//
// which snaps a value to the nearest multiple of the noise tolerance alpha.
// Values within alpha/2 of an integer land exactly on it, suppressing small
// measurement noise before scoring.
func RoundToGrid(u, alpha float64) float64 {
	if alpha <= 0 {
		return u
	}
	return alpha * math.Floor(u/alpha+0.5)
}

// Score implements the paper's per-element pivot scoring function on the
// absolute value v of a (rounded) column element:
//
//	Sc(v) = v    if v >= 1
//	      = 1/v  if 0 < v < 1
//	      = 0    if v == 0
//
// Columns consisting of a few ones and many zeros — columns that look like
// expectation-basis vectors — minimize the total score.
func Score(v float64) float64 {
	switch {
	case v >= 1:
		return v
	case v > 0:
		return 1 / v
	default:
		return 0
	}
}

// ColumnScore returns the pivot score of a column: the sum of Sc(|R(u)|)
// over its elements.
func ColumnScore(col []float64, alpha float64) float64 {
	var s float64
	for _, u := range col {
		s += Score(math.Abs(RoundToGrid(u, alpha)))
	}
	return s
}

// SpecializedQRCPResult reports the outcome of Algorithm 2.
type SpecializedQRCPResult struct {
	// Perm is the permutation array: Perm[i] is the original column index
	// occupying position i after pivoting. The first Rank entries identify
	// the selected linearly independent columns, in selection order.
	Perm []int
	// Rank is the number of columns selected before termination.
	Rank int
	// Scores records the pivot score of each selected column at the moment
	// it was chosen (diagnostic).
	Scores []float64
}

// Selected returns the original indices of the selected columns in selection
// order.
func (r *SpecializedQRCPResult) Selected() []int {
	out := make([]int, r.Rank)
	copy(out, r.Perm[:r.Rank])
	return out
}

// SpecializedQRCP implements the paper's Algorithm 2: a column-pivoted
// Householder QR whose pivot rule prefers columns that are closest to the
// dimensions of the expectation basis, instead of the classical
// largest-norm rule.
//
// At each step i, every trailing column j >= i is considered:
//
//   - its residual norm in the orthogonalized working matrix (rows i..m, the
//     part not yet explained by chosen columns) must be at least
//     beta = ||(alpha, ..., alpha)||_2 = alpha*sqrt(m); columns below beta
//     are linearly dependent on the selection (or are near-zero) and are
//     disregarded;
//   - eligible columns are scored with ColumnScore over the column of X
//     (values rounded to the alpha grid — the paper scores the columns of X,
//     not the rotated working matrix), and the minimum score wins;
//   - ties break to the column with the smallest residual norm, then to the
//     earliest column, which makes the algorithm deterministic for a given
//     input order.
//
// When no eligible column remains the pivot is -1 and the algorithm
// terminates (rank revealed). Linear independence of the selected columns is
// guaranteed by the Householder orthogonalization between steps.
func SpecializedQRCP(x *mat.Dense, alpha float64) *SpecializedQRCPResult {
	m, n := x.Dims()
	work := x.Clone()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	beta := alpha * math.Sqrt(float64(m))
	tau := make([]float64, min(m, n))
	res := &SpecializedQRCPResult{Perm: perm}
	steps := min(m, n)
	for i := 0; i < steps; i++ {
		pivot, score := getPivot(x, work, perm, i, alpha, beta)
		if pivot == -1 {
			break
		}
		work.SwapCols(i, pivot)
		perm[i], perm[pivot] = perm[pivot], perm[i]
		mat.HouseholderStep(work, i, tau)
		res.Rank++
		res.Scores = append(res.Scores, score)
	}
	return res
}

// getPivot implements the specialized pivot selection for step i, returning
// the chosen working-matrix column index (or -1 to terminate) and its score.
// Scores come from the original X columns; eligibility (the beta test) from
// the orthogonalized residuals in work.
func getPivot(x, work *mat.Dense, perm []int, i int, alpha, beta float64) (int, float64) {
	n := work.Cols()
	pivot := -1
	bestScore := math.Inf(1)
	bestNorm := math.Inf(1)
	for j := i; j < n; j++ {
		resNorm := mat.ColNorm(work, i, j)
		if resNorm < beta {
			continue // dependent on the selection, or effectively zero
		}
		score := ColumnScore(x.Col(perm[j]), alpha)
		if score < bestScore || (mat.ExactEq(score, bestScore) && resNorm < bestNorm) {
			bestScore = score
			bestNorm = resNorm
			pivot = j
		}
	}
	if pivot == -1 {
		return -1, 0
	}
	return pivot, bestScore
}
