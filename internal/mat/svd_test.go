package mat

import (
	"math"
	"math/rand"
	"testing"
)

func TestSVDReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 15; trial++ {
		m := 2 + rng.Intn(10)
		n := 1 + rng.Intn(10)
		a := randomDense(rng, m, n)
		d := ComputeSVD(a)
		// Reconstruct U * diag(S) * Vᵀ.
		us := d.U.Clone()
		for j := 0; j < len(d.S); j++ {
			for i := 0; i < us.Rows(); i++ {
				us.Set(i, j, us.At(i, j)*d.S[j])
			}
		}
		recon := MatMul(us, d.V.Transpose())
		if !recon.EqualApprox(a, 1e-9) {
			t.Fatalf("trial %d (%dx%d): U·S·Vᵀ != A", trial, m, n)
		}
	}
}

func TestSVDSingularValuesSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	d := ComputeSVD(randomDense(rng, 9, 6))
	for i := 1; i < len(d.S); i++ {
		if d.S[i] > d.S[i-1]+1e-12 {
			t.Fatalf("singular values not descending: %v", d.S)
		}
		if d.S[i] < 0 {
			t.Fatalf("negative singular value: %v", d.S)
		}
	}
}

func TestSVDOrthogonality(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	a := randomDense(rng, 10, 4)
	d := ComputeSVD(a)
	if !MatTMul(d.U, d.U).EqualApprox(Identity(4), 1e-10) {
		t.Fatalf("UᵀU != I")
	}
	if !MatTMul(d.V, d.V).EqualApprox(Identity(4), 1e-10) {
		t.Fatalf("VᵀV != I")
	}
}

func TestSVDKnownValues(t *testing.T) {
	// diag(3, 2) has singular values {3, 2}.
	a := newDenseData(2, 2, []float64{3, 0, 0, 2})
	d := ComputeSVD(a)
	if math.Abs(d.S[0]-3) > 1e-12 || math.Abs(d.S[1]-2) > 1e-12 {
		t.Fatalf("S = %v want [3 2]", d.S)
	}
}

func TestSVDRank(t *testing.T) {
	col := []float64{1, 2, 3}
	a := FromColumns([][]float64{col, col, {0, 0, 1}})
	// Rank 2: two singular values clear of zero, the third at rounding level.
	d := ComputeSVD(a)
	if d.S[1] <= 1e-12*d.S[0] || d.S[2] > 1e-12*d.S[0] {
		t.Fatalf("S = %v, want exactly two values above 1e-12*S[0]", d.S)
	}
}

func TestSVDWideMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := randomDense(rng, 3, 7)
	d := ComputeSVD(a)
	if len(d.S) != 3 {
		t.Fatalf("wide SVD should have min(m,n)=3 singular values, got %d", len(d.S))
	}
	us := d.U.Clone()
	for j := 0; j < len(d.S); j++ {
		for i := 0; i < us.Rows(); i++ {
			us.Set(i, j, us.At(i, j)*d.S[j])
		}
	}
	if !MatMul(us, d.V.Transpose()).EqualApprox(a, 1e-9) {
		t.Fatalf("wide SVD reconstruction failed")
	}
}

func TestPseudoSolveMinimumNorm(t *testing.T) {
	// Underdetermined: x + y = 2 has minimum-norm solution (1, 1).
	a := newDenseData(1, 2, []float64{1, 1})
	x := ComputeSVD(a).PseudoSolve([]float64{2}, 0)
	if !VecEqualApprox(x, []float64{1, 1}, 1e-10) {
		t.Fatalf("PseudoSolve = %v want [1 1]", x)
	}
}

func TestPseudoSolveRankDeficient(t *testing.T) {
	// Both columns identical; solution spreads weight evenly and the
	// residual still matches the best possible.
	col := []float64{1, 1}
	a := FromColumns([][]float64{col, col})
	b := []float64{2, 2}
	x := ComputeSVD(a).PseudoSolve(b, 0)
	r := SubVec(MatVec(a, x), b)
	if Norm2(r) > 1e-10 {
		t.Fatalf("residual %v should be ~0", r)
	}
	if math.Abs(x[0]-x[1]) > 1e-10 {
		t.Fatalf("minimum-norm solution should be symmetric: %v", x)
	}
}
