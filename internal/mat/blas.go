package mat

import (
	"fmt"
	"math"

	"github.com/perfmetrics/eventlens/internal/par"
)

// matmulParallelThreshold is the minimum number of result elements before
// MatMul fans work out across goroutines. Small products are faster serial.
const matmulParallelThreshold = 64 * 64

// matmulBlock is the cache-blocking factor for the k dimension.
const matmulBlock = 64

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
	var scale, ssq float64
	ssq = 1
	for i := 0; i < a.rows; i++ {
		d := Dot(a.RawRow(i), x) - b[i]
		if IsZero(d) {
			continue
		}
		v := math.Abs(d)
		if scale < v {
			r := scale / v
			ssq = 1 + ssq*r*r
			scale = v
		} else {
			r := v / scale
			ssq += r * r
		}
	}
	if IsZero(scale) {
		return 0
	}
	return scale * math.Sqrt(ssq)
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

// MatMul returns A*B as a new matrix. The inner dimensions must agree.
// The kernel is blocked over k for cache locality and row-parallel for large
// products.
func MatMul(a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: MatMul dimension mismatch %dx%d * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	c := NewDense(a.rows, b.cols)
	if a.rows*b.cols < matmulParallelThreshold {
		matmulRows(c, a, b, 0, a.rows)
		return c
	}
	workers := par.Workers(0)
	if workers > a.rows {
		workers = a.rows
	}
	chunk := (a.rows + workers - 1) / workers
	// Each chunk writes a disjoint row range of c, so the fan-out is
	// byte-identical to the serial loop regardless of scheduling.
	par.For(workers, workers, func(w int) {
		lo := w * chunk
		hi := lo + chunk
		if hi > a.rows {
			hi = a.rows
		}
		if lo < hi {
			matmulRows(c, a, b, lo, hi)
		}
	})
	return c
}

// matmulRows computes rows [lo,hi) of c = a*b using an ikj loop order with
// k-blocking, so the innermost loop streams rows of b.
func matmulRows(c, a, b *Dense, lo, hi int) {
	n := b.cols
	for kb := 0; kb < a.cols; kb += matmulBlock {
		kend := kb + matmulBlock
		if kend > a.cols {
			kend = a.cols
		}
		for i := lo; i < hi; i++ {
			arow := a.RawRow(i)
			crow := c.data[i*n : (i+1)*n]
			for k := kb; k < kend; k++ {
				aik := arow[k]
				if IsZero(aik) {
					continue
				}
				brow := b.data[k*n : (k+1)*n]
				for j, bv := range brow {
					crow[j] += aik * bv
				}
			}
		}
	}
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
