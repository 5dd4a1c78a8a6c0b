package mat

import (
	"math"
	"testing"
)

// newDenseData returns an r-by-c matrix backed by data, which holds exactly
// r*c elements in row-major order.
func newDenseData(r, c int, data []float64) *Dense {
	return &Dense{rows: r, cols: c, data: data}
}

// equalApprox reports whether m and n have the same shape and all elements
// agree within absolute tolerance tol. Equal values agree (infinities
// included) and NaN agrees with nothing, so tol 0 asks for identical
// elements.
func equalApprox(m, n *Dense, tol float64) bool {
	if m.rows != n.rows || m.cols != n.cols {
		return false
	}
	for i, v := range m.data {
		if w := n.data[i]; !ExactEq(v, w) && !(math.Abs(v-w) <= tol) {
			return false
		}
	}
	return true
}

// isFinite reports whether every element of m is finite (no NaN or Inf).
func isFinite(m *Dense) bool {
	for _, v := range m.data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

func TestNewDenseZeroed(t *testing.T) {
	m := NewDense(3, 4)
	r, c := m.Dims()
	if r != 3 || c != 4 {
		t.Fatalf("Dims = %d,%d want 3,4", r, c)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("At(%d,%d) = %v want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNegativeDimensionPanics(t *testing.T) {
	defer expectPanic(t, "negative dims")
	NewDense(-1, 2)
}

func TestAtOutOfRangePanics(t *testing.T) {
	defer expectPanic(t, "index out of range")
	NewDense(2, 2).At(2, 0)
}

func TestSetAndAt(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(1, 0, 7.5)
	if m.At(1, 0) != 7.5 {
		t.Fatalf("Set/At round trip failed")
	}
}

func TestFromColumns(t *testing.T) {
	m := FromColumns([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("dims = %d,%d", m.Rows(), m.Cols())
	}
	if m.At(0, 1) != 3 || m.At(1, 2) != 6 {
		t.Fatalf("column placement wrong: %v", m)
	}
}

func TestFromColumnsEmpty(t *testing.T) {
	m := FromColumns(nil)
	if m.Rows() != 0 || m.Cols() != 0 {
		t.Fatalf("empty FromColumns should be 0x0")
	}
}

func TestFromColumnsRaggedPanics(t *testing.T) {
	defer expectPanic(t, "ragged columns")
	FromColumns([][]float64{{1, 2}, {3}})
}

func TestIdentity(t *testing.T) {
	m := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if m.At(i, j) != want {
				t.Fatalf("Identity(3)[%d][%d] = %v", i, j, m.At(i, j))
			}
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := newDenseData(1, 2, []float64{1, 2})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatalf("Clone aliases original")
	}
}

func TestTranspose(t *testing.T) {
	m := newDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	tr := m.Transpose()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("transpose dims wrong")
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at %d,%d", i, j)
			}
		}
	}
}

func TestSwapCols(t *testing.T) {
	m := newDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	m.SwapCols(0, 2)
	if m.At(0, 0) != 3 || m.At(1, 0) != 6 || m.At(0, 2) != 1 {
		t.Fatalf("SwapCols wrong: %v", m)
	}
	m.SwapCols(1, 1) // no-op
	if m.At(0, 1) != 2 {
		t.Fatalf("self-swap should be a no-op")
	}
}

func TestColRowCopies(t *testing.T) {
	m := newDenseData(2, 2, []float64{1, 2, 3, 4})
	col := m.Col(1)
	col[0] = 99
	if m.At(0, 1) != 2 {
		t.Fatalf("Col should return a copy")
	}
}

func TestSetColSetRow(t *testing.T) {
	m := NewDense(2, 2)
	m.SetCol(0, []float64{1, 2})
	copy(m.RawRow(1), []float64{8, 9})
	if m.At(0, 0) != 1 || m.At(1, 0) != 8 || m.At(1, 1) != 9 || m.At(0, 1) != 0 {
		t.Fatalf("SetCol/RawRow wrong: %v", m)
	}
}

func TestColSlice(t *testing.T) {
	m := newDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	s := m.ColSlice([]int{2, 0})
	if s.Cols() != 2 || s.At(0, 0) != 3 || s.At(0, 1) != 1 || s.At(1, 0) != 6 {
		t.Fatalf("ColSlice wrong: %v", s)
	}
}

func TestAddSub(t *testing.T) {
	a := newDenseData(2, 2, []float64{1, 2, 3, 4})
	b := newDenseData(2, 2, []float64{4, 3, 2, 1})
	sum := newDenseData(2, 2, []float64{5, 5, 5, 5})
	diff := NewDense(2, 2).Sub(sum, b)
	if !equalApprox(diff, a, 0) {
		t.Fatalf("Sub should invert the element-wise sum")
	}
	if NewDense(2, 2).Sub(sum, sum).At(1, 1) != 0 {
		t.Fatalf("x - x should be 0")
	}
}

// TestEqualApprox and TestIsFinite check the assertion helpers, so that a
// broken helper cannot make the assertions that use it vacuous.
func TestEqualApprox(t *testing.T) {
	a := newDenseData(1, 2, []float64{1, 2})
	b := newDenseData(1, 2, []float64{1 + 1e-12, 2})
	if !equalApprox(a, b, 1e-10) {
		t.Fatalf("equalApprox should accept tiny difference")
	}
	if equalApprox(a, b, 1e-14) || equalApprox(a, b, 0) {
		t.Fatalf("equalApprox should reject beyond tolerance")
	}
	c := NewDense(2, 1)
	if equalApprox(a, c, 1) {
		t.Fatalf("shape mismatch must not be approx-equal")
	}
	nan := newDenseData(1, 2, []float64{1, math.NaN()})
	if equalApprox(nan, a, math.Inf(1)) || equalApprox(a, nan, math.Inf(1)) || equalApprox(nan, nan, 0) {
		t.Fatalf("NaN must agree with nothing, itself included")
	}
	inf := newDenseData(1, 2, []float64{1, math.Inf(1)})
	if !equalApprox(inf, inf, 0) || equalApprox(inf, a, 1e300) {
		t.Fatalf("an infinity must agree with itself only")
	}
}

func TestIsFinite(t *testing.T) {
	m := newDenseData(1, 2, []float64{1, 2})
	if !isFinite(m) {
		t.Fatalf("finite matrix misreported")
	}
	m.Set(0, 1, math.NaN())
	if isFinite(m) {
		t.Fatalf("NaN not detected")
	}
	m.Set(0, 1, math.Inf(1))
	if isFinite(m) {
		t.Fatalf("Inf not detected")
	}
}

func TestStringContainsDims(t *testing.T) {
	s := NewDense(2, 3).String()
	if len(s) == 0 || s[:3] != "2x3" {
		t.Fatalf("String() should start with dims, got %q", s)
	}
}

func expectPanic(t *testing.T, what string) {
	t.Helper()
	if recover() == nil {
		t.Fatalf("expected panic: %s", what)
	}
}
