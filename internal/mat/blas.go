package mat

import "fmt"

// MatVec returns A*x as a new slice. x must have length A.Cols().
func MatVec(a *Dense, x []float64) []float64 {
	if len(x) != a.cols {
		panic(fmt.Sprintf("mat: MatVec dimension mismatch %dx%d * %d", a.rows, a.cols, len(x)))
	}
	y := make([]float64, a.rows)
	for i := 0; i < a.rows; i++ {
		y[i] = Dot(a.RawRow(i), x)
	}
	return y
}

// ResidualNorm2 returns ||A*x - b||₂ without materializing A*x or the
// difference vector. Row i's residual is Dot(A.Row(i), x) - b[i] and the norm
// accumulation mirrors Norm2's scaling exactly, so the result is bitwise
// identical to Norm2(SubVec(MatVec(a, x), b)) with zero allocations.
func ResidualNorm2(a *Dense, x, b []float64) float64 {
	if len(x) != a.cols {
		panic(fmt.Sprintf("mat: ResidualNorm2 dimension mismatch %dx%d * %d", a.rows, a.cols, len(x)))
	}
	if len(b) != a.rows {
		panic(fmt.Sprintf("mat: ResidualNorm2 rhs length %d, want %d", len(b), a.rows))
	}
	scale, ssq := 0.0, 1.0
	for i := 0; i < a.rows; i++ {
		scale, ssq = ssqStep(scale, ssq, Dot(a.RawRow(i), x)-b[i])
	}
	return ssqNorm(scale, ssq)
}

// MatTVec returns Aᵀ*x as a new slice. x must have length A.Rows().
func MatTVec(a *Dense, x []float64) []float64 {
	if len(x) != a.rows {
		panic(fmt.Sprintf("mat: MatTVec dimension mismatch %dx%d^T * %d", a.rows, a.cols, len(x)))
	}
	y := make([]float64, a.cols)
	for i := 0; i < a.rows; i++ {
		Axpy(x[i], a.RawRow(i), y)
	}
	return y
}

// MatMul returns A*B as a new matrix. The inner dimensions must agree. The
// loop order is ikj, so the innermost loop streams rows of b and every
// element of the product sums over k in order, skipping zero entries of a.
func MatMul(a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: MatMul dimension mismatch %dx%d * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	c := NewDense(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		crow := c.RawRow(i)
		for k, aik := range a.RawRow(i) {
			if IsZero(aik) {
				continue
			}
			for j, bv := range b.RawRow(k) {
				crow[j] += aik * bv
			}
		}
	}
	return c
}

// MatTMul returns Aᵀ*B as a new matrix.
func MatTMul(a, b *Dense) *Dense {
	if a.rows != b.rows {
		panic(fmt.Sprintf("mat: MatTMul dimension mismatch %dx%d^T * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	c := NewDense(a.cols, b.cols)
	for k := 0; k < a.rows; k++ {
		arow := a.RawRow(k)
		brow := b.RawRow(k)
		for i, av := range arow {
			if IsZero(av) {
				continue
			}
			crow := c.RawRow(i)
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
	return c
}
