package oracle

import (
	"math"
	"testing"

	"github.com/perfmetrics/eventlens/internal/mat"
)

func TestULPDiff(t *testing.T) {
	cases := []struct {
		a, b float64
		want uint64
	}{
		{1, 1, 0},
		{0, math.Copysign(0, -1), 0},
		{1, math.Nextafter(1, 2), 1},
		{1, math.Nextafter(math.Nextafter(1, 2), 2), 2},
		{-1, math.Nextafter(-1, 0), 1},
		{math.Nextafter(0, -1), math.Nextafter(0, 1), 2},
	}
	for _, c := range cases {
		if got := ULPDiff(c.a, c.b); got != c.want {
			t.Errorf("ULPDiff(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := ULPDiff(c.b, c.a); got != c.want {
			t.Errorf("ULPDiff(%v, %v) = %d, want %d (symmetry)", c.b, c.a, got, c.want)
		}
	}
	if ULPDiff(1, math.NaN()) != math.MaxUint64 {
		t.Error("NaN must be infinitely far from everything")
	}
	if d := ULPDiff(math.Inf(-1), math.Inf(1)); d == 0 {
		t.Error("opposite infinities must differ")
	}
}

func TestTolClose(t *testing.T) {
	rel := Tol{Rel: 1e-9}
	if !rel.Close(1e6, 1e6*(1+1e-10)) {
		t.Error("within relative tolerance")
	}
	if rel.Close(1e6, 1e6*(1+1e-8)) {
		t.Error("outside relative tolerance")
	}
	abs := Tol{Abs: 1e-12}
	if !abs.Close(1e-13, -1e-13) {
		t.Error("within absolute tolerance")
	}
	ulp := Tol{ULP: 4}
	if !ulp.Close(1, math.Nextafter(1, 2)) {
		t.Error("within ulp tolerance")
	}
	var exact Tol
	if exact.Close(1, math.Nextafter(1, 2)) {
		t.Error("zero tolerance accepts only exact equality")
	}
	if !exact.Close(2.5, 2.5) {
		t.Error("exact equality must pass any tolerance")
	}
}

// TestGramSchmidtSelfConsistency verifies the oracle against ground truth it
// can state on its own: orthonormal Q, exact reconstruction, and a
// hand-checkable factorization.
func TestGramSchmidtSelfConsistency(t *testing.T) {
	p := NewProblems(7)
	for i := 0; i < 20; i++ {
		a := p.Gaussian("self", i)
		g := GramSchmidtQRCP(a, 0)
		if res := g.Residual(a); res > 1e-13 {
			t.Fatalf("case %d: reconstruction residual %.2e", i, res)
		}
		// QᵀQ = I.
		qtq := mat.MatTMul(g.Q, g.Q)
		if !qtq.EqualApprox(mat.Identity(qtq.Rows()), 1e-12) {
			t.Fatalf("case %d: Q columns not orthonormal", i)
		}
		// R diagonal non-negative and non-increasing is NOT guaranteed in
		// general, but the diagonal must be non-negative by construction.
		for k := 0; k < g.Rank; k++ {
			if g.R.At(k, k) < 0 {
				t.Fatalf("case %d: negative R diagonal at %d", i, k)
			}
		}
	}
}

// TestEigSVDSelfConsistency checks the eigendecomposition oracle against
// mat's independent one-sided Jacobi SVD on random matrices: the singular
// values must agree tightly.
func TestEigSVDSelfConsistency(t *testing.T) {
	p := NewProblems(11)
	tol := Tol{Rel: 1e-8, Abs: 1e-8}
	for i := 0; i < 20; i++ {
		a := p.Gaussian("eigsvd", i)
		got := ComputeEigSVD(a)
		want := mat.ComputeSVD(a)
		if err := tol.CheckVec("singular values", got.S, want.S); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
	}
}

// TestSVDLeastSquaresKnownSolution solves a consistent system with a known
// exact answer.
func TestSVDLeastSquaresKnownSolution(t *testing.T) {
	// A = [[1,0],[0,2],[1,1]], x = [3, -1] => b = [3, -2, 2].
	a := mat.FromColumns([][]float64{{1, 0, 1}, {0, 2, 1}})
	x, err := SVDLeastSquares(a, []float64{3, -2, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := DefaultTol().CheckVec("x", x, []float64{3, -1}); err != nil {
		t.Fatal(err)
	}
	gs, err := GramSchmidtLeastSquares(a, []float64{3, -2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := DefaultTol().CheckVec("x (Gram–Schmidt)", gs, []float64{3, -1}); err != nil {
		t.Fatal(err)
	}
}

// TestDifferentialChecks runs every differential check family at reduced
// case counts — the same code cmd/verify runs at scale.
func TestDifferentialChecks(t *testing.T) {
	p := NewProblems(1)
	tol := DefaultTol()
	for _, res := range []CheckResult{
		CheckQRCPGaussian(p, 25, tol),
		CheckQRCPGraded(p, 25, tol),
		CheckQRCPRankDeficient(p, 25),
		CheckQRSolve(p, 25, tol),
		CheckLeastSquaresUnderdetermined(p, 25, tol),
		CheckProjector(p, 25, tol),
	} {
		t.Log(res.String())
		if res.Err != nil {
			t.Error(res.Err)
		}
		if res.Err == nil && res.MaxRel > tol.Rel {
			t.Errorf("%s: passed but max-rel %.2e exceeds tolerance %.2e", res.Name, res.MaxRel, tol.Rel)
		}
	}
}

// TestProblemsDeterministic pins the generator contract: same seed, same
// bytes.
func TestProblemsDeterministic(t *testing.T) {
	a := NewProblems(42).Gaussian("det", 3)
	b := NewProblems(42).Gaussian("det", 3)
	if !a.Equal(b) {
		t.Fatal("same seed and index produced different matrices")
	}
	c := NewProblems(43).Gaussian("det", 3)
	if a.Rows() == c.Rows() && a.Cols() == c.Cols() && a.Equal(c) {
		t.Fatal("different seeds produced identical matrices")
	}
	d := NewProblems(42).Gaussian("other-stream", 3)
	if a.Rows() == d.Rows() && a.Cols() == d.Cols() && a.Equal(d) {
		t.Fatal("different streams produced identical matrices")
	}
}
