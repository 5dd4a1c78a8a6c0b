// Package mat provides the dense linear algebra kernels used by the event
// analysis pipeline: matrices and vectors, Householder QR, column-pivoted QR
// (classical largest-norm pivoting), least-squares solvers, a one-sided Jacobi
// SVD, and the norm machinery the backward-error formulas need.
//
// The package is written from scratch on top of the standard library only.
// Matrices are dense, row-major float64. The implementations favour clarity
// and numerical robustness over absolute peak performance, but the hot kernels
// (matrix multiply, Householder updates) are blocked and optionally parallel.
package mat

import (
	"fmt"
	"strings"
)

// Dense is a dense, row-major matrix of float64 values.
//
// The zero value is an empty 0x0 matrix. Use NewDense or NewDenseData to
// construct matrices with content.
type Dense struct {
	rows, cols int
	data       []float64 // len == rows*cols, row-major
}

// NewDense returns a zeroed r-by-c matrix. It panics if r or c is negative.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// FromColumns assembles a matrix whose columns are the given vectors. All
// vectors must have the same length. An empty column list yields a 0x0 matrix.
func FromColumns(cols [][]float64) *Dense {
	if len(cols) == 0 {
		return NewDense(0, 0)
	}
	r := len(cols[0])
	m := NewDense(r, len(cols))
	for j, col := range cols {
		if len(col) != r {
			panic(fmt.Sprintf("mat: column %d has length %d, want %d", j, len(col), r))
		}
		for i, v := range col {
			m.Set(i, j, v)
		}
	}
	return m
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Dims returns the number of rows and columns.
func (m *Dense) Dims() (r, c int) { return m.rows, m.cols }

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.checkIndex(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns v to the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.checkIndex(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) checkIndex(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range for %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// RawRow returns the backing slice for row i. Mutations are visible in the
// matrix. The slice must not be resized.
func (m *Dense) RawRow(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range for %dx%d matrix", i, m.rows, m.cols))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Col returns a copy of column j.
func (m *Dense) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: column %d out of range for %dx%d matrix", j, m.rows, m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// SetCol overwrites column j with v, which must have length Rows().
func (m *Dense) SetCol(j int, v []float64) {
	if len(v) != m.rows {
		panic(fmt.Sprintf("mat: SetCol length %d, want %d", len(v), m.rows))
	}
	for i := 0; i < m.rows; i++ {
		m.data[i*m.cols+j] = v[i]
	}
}

// Clone returns a deep copy of the matrix.
func (m *Dense) Clone() *Dense {
	d := make([]float64, len(m.data))
	copy(d, m.data)
	return &Dense{rows: m.rows, cols: m.cols, data: d}
}

// Transpose returns a newly allocated transpose of m.
func (m *Dense) Transpose() *Dense {
	t := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.RawRow(i)
		for j, v := range row {
			t.data[j*t.cols+i] = v
		}
	}
	return t
}

// SwapCols exchanges columns i and j in place.
func (m *Dense) SwapCols(i, j int) {
	if i == j {
		return
	}
	if i < 0 || i >= m.cols || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: SwapCols(%d,%d) out of range for %d columns", i, j, m.cols))
	}
	for r := 0; r < m.rows; r++ {
		base := r * m.cols
		m.data[base+i], m.data[base+j] = m.data[base+j], m.data[base+i]
	}
}

// ColSlice returns a new matrix containing columns js of m, in order.
func (m *Dense) ColSlice(js []int) *Dense {
	out := NewDense(m.rows, len(js))
	for k, j := range js {
		if j < 0 || j >= m.cols {
			panic(fmt.Sprintf("mat: ColSlice index %d out of range for %d columns", j, m.cols))
		}
		for i := 0; i < m.rows; i++ {
			out.data[i*out.cols+k] = m.data[i*m.cols+j]
		}
	}
	return out
}

// Sub stores a-b in the receiver and returns it. Aliasing is allowed.
func (m *Dense) Sub(a, b *Dense) *Dense {
	if a.rows != b.rows || a.cols != b.cols || m.rows != a.rows || m.cols != a.cols {
		panic(fmt.Sprintf("mat: Sub dimension mismatch %dx%d - %dx%d -> %dx%d",
			a.rows, a.cols, b.rows, b.cols, m.rows, m.cols))
	}
	for i := range m.data {
		m.data[i] = a.data[i] - b.data[i]
	}
	return m
}

// String renders the matrix for debugging.
func (m *Dense) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%dx%d\n", m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "% .6g", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
