package mat

import (
	"math"
	"math/rand"
	"testing"
)

func TestLeastSquaresExactFit(t *testing.T) {
	a := newDenseData(3, 2, []float64{
		1, 0,
		0, 1,
		1, 1,
	})
	want := []float64{2, 3}
	b := MatVec(a, want)
	res, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !VecEqualApprox(res.X, want, 1e-12) {
		t.Fatalf("X = %v want %v", res.X, want)
	}
	if res.Residual > 1e-12 {
		t.Fatalf("residual = %v want ~0", res.Residual)
	}
	if res.BackwardError > 1e-13 {
		t.Fatalf("backward error = %v want ~0", res.BackwardError)
	}
}

func TestLeastSquaresInconsistent(t *testing.T) {
	// Single column of ones, b not constant: solution is the mean.
	a := FromColumns([][]float64{{1, 1, 1, 1}})
	b := []float64{0, 0, 4, 4}
	res, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-2) > 1e-12 {
		t.Fatalf("X = %v want [2]", res.X)
	}
	if math.Abs(res.Residual-4) > 1e-12 { // sqrt(4+4+4+4)=4
		t.Fatalf("residual = %v want 4", res.Residual)
	}
}

func TestLeastSquaresRankDeficientFallsBackToSVD(t *testing.T) {
	col := []float64{1, 2, 3}
	a := FromColumns([][]float64{col, col})
	b := []float64{2, 4, 6}
	res, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Residual > 1e-10 {
		t.Fatalf("residual = %v want ~0", res.Residual)
	}
	if math.Abs(res.X[0]-res.X[1]) > 1e-10 {
		t.Fatalf("minimum-norm solution should split evenly: %v", res.X)
	}
}

func TestLeastSquaresUnderdetermined(t *testing.T) {
	a := newDenseData(1, 3, []float64{1, 1, 1})
	res, err := LeastSquares(a, []float64{3})
	if err != nil {
		t.Fatal(err)
	}
	if !VecEqualApprox(res.X, []float64{1, 1, 1}, 1e-10) {
		t.Fatalf("minimum-norm underdetermined solution = %v", res.X)
	}
}

func TestLeastSquaresBadRHS(t *testing.T) {
	if _, err := LeastSquares(NewDense(2, 2), []float64{1}); err == nil {
		t.Fatalf("expected rhs length error")
	}
	if _, err := LeastSquares(NewDense(2, 0), []float64{1, 2}); err == nil {
		t.Fatalf("expected zero-column error")
	}
}

func TestBackwardErrorUnmatchableSignature(t *testing.T) {
	// This mirrors the paper's "Conditional Branches Executed" case: the
	// target is orthogonal to every column, the best solution is y ≈ 0, and
	// the backward error formula then evaluates to ‖s‖/‖s‖ = 1.
	a := FromColumns([][]float64{
		{0, 1, 0, 0},
		{0, 0, 1, 0},
	})
	s := []float64{1, 0, 0, 0}
	res, err := LeastSquares(a, s)
	if err != nil {
		t.Fatal(err)
	}
	if Norm2(res.X) > 1e-12 {
		t.Fatalf("solution should be ~0, got %v", res.X)
	}
	if math.Abs(res.BackwardError-1) > 1e-12 {
		t.Fatalf("backward error = %v want 1", res.BackwardError)
	}
}

func TestSpectralNormKnown(t *testing.T) {
	a := newDenseData(2, 2, []float64{3, 0, 0, 2})
	if got := SpectralNorm(a); math.Abs(got-3) > 1e-9 {
		t.Fatalf("SpectralNorm = %v want 3", got)
	}
	if SpectralNorm(NewDense(0, 0)) != 0 {
		t.Fatalf("SpectralNorm of empty should be 0")
	}
	if SpectralNorm(NewDense(3, 3)) != 0 {
		t.Fatalf("SpectralNorm of zero matrix should be 0")
	}
}

func TestSpectralNormMatchesSVD(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 10; trial++ {
		a := randomDense(rng, 3+rng.Intn(8), 1+rng.Intn(8))
		pn := SpectralNorm(a)
		sv := ComputeSVD(a).S[0]
		if math.Abs(pn-sv) > 1e-7*math.Max(1, sv) {
			t.Fatalf("power iteration %v vs SVD %v", pn, sv)
		}
	}
}

func TestFrobeniusNorm(t *testing.T) {
	a := newDenseData(2, 2, []float64{1, 2, 2, 4})
	if got := FrobeniusNorm(a); math.Abs(got-5) > 1e-12 {
		t.Fatalf("FrobeniusNorm = %v want 5", got)
	}
}

// Property: the least-squares residual never exceeds ‖b‖ (x=0 is feasible),
// and Aᵀr ≈ 0 at the solution.
func TestLeastSquaresOptimalityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		m := 2 + rng.Intn(10)
		n := 1 + rng.Intn(10)
		a := randomDense(rng, m, n)
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		res, err := LeastSquares(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if res.Residual > Norm2(b)+1e-9 {
			t.Fatalf("residual %v exceeds ‖b‖ %v", res.Residual, Norm2(b))
		}
		r := SubVec(MatVec(a, res.X), b)
		if NormInf(MatTVec(a, r)) > 1e-8 {
			t.Fatalf("normal equations violated at solution")
		}
	}
}

func BenchmarkLeastSquaresQR(b *testing.B) {
	rng := rand.New(rand.NewSource(64))
	a := randomDense(rng, 128, 16)
	rhs := make([]float64, 128)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LeastSquares(a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}
