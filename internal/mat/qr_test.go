package mat

import (
	"math"
	"math/rand"
	"testing"
)

func randomDense(rng *rand.Rand, m, n int) *Dense {
	a := NewDense(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	return a
}

// qVec applies f's Q to b in place; b must have length m.
func qVec(f *QR, b []float64) {
	for k := f.n - 1; k >= 0; k-- {
		t := f.tau[k]
		if IsZero(t) {
			continue
		}
		w := b[k]
		for i := k + 1; i < f.m; i++ {
			w += f.qr.At(i, k) * b[i]
		}
		w *= t
		b[k] -= w
		for i := k + 1; i < f.m; i++ {
			b[i] -= w * f.qr.At(i, k)
		}
	}
}

// qFactor materializes the thin m-by-n orthonormal factor of f.
func qFactor(f *QR) *Dense {
	q := NewDense(f.m, f.n)
	col := make([]float64, f.m)
	for j := 0; j < f.n; j++ {
		for i := range col {
			col[i] = 0
		}
		col[j] = 1
		qVec(f, col)
		q.SetCol(j, col)
	}
	return q
}

// rFactor returns the n-by-n upper-triangular factor of f.
func rFactor(f *QR) *Dense {
	r := NewDense(f.n, f.n)
	for i := 0; i < f.n; i++ {
		for j := i; j < f.n; j++ {
			r.Set(i, j, f.qr.At(i, j))
		}
	}
	return r
}

func TestQRReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		m := 2 + rng.Intn(20)
		n := 1 + rng.Intn(m)
		a := randomDense(rng, m, n)
		f := Factorize(a)
		q := qFactor(f)
		r := rFactor(f)
		// Reconstruct A from the thin factors: A = Q*R.
		recon := MatMul(q, r)
		if !recon.EqualApprox(a, 1e-10) {
			t.Fatalf("trial %d: Q*R != A (m=%d n=%d)", trial, m, n)
		}
	}
}

func TestQROrthonormalColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomDense(rng, 12, 5)
	q := qFactor(Factorize(a))
	qtq := MatTMul(q, q)
	if !qtq.EqualApprox(Identity(5), 1e-12) {
		t.Fatalf("QᵀQ != I:\n%v", qtq)
	}
}

func TestQRSolveExact(t *testing.T) {
	// Square, well-conditioned system with a known solution.
	a := newDenseData(3, 3, []float64{
		4, 1, 0,
		1, 3, 1,
		0, 1, 2,
	})
	want := []float64{1, -2, 3}
	b := MatVec(a, want)
	x, err := Factorize(a).Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if !VecEqualApprox(x, want, 1e-12) {
		t.Fatalf("Solve = %v want %v", x, want)
	}
}

func TestQRSolveOverdetermined(t *testing.T) {
	// Fit y = 2x + 1 through exact points: residual must be ~0.
	xs := []float64{0, 1, 2, 3, 4}
	a := NewDense(len(xs), 2)
	b := make([]float64, len(xs))
	for i, x := range xs {
		a.Set(i, 0, x)
		a.Set(i, 1, 1)
		b[i] = 2*x + 1
	}
	sol, err := Factorize(a).Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol[0]-2) > 1e-12 || math.Abs(sol[1]-1) > 1e-12 {
		t.Fatalf("line fit = %v want [2 1]", sol)
	}
}

func TestQRSolveSingular(t *testing.T) {
	// col2 = 2*col1: R is singular. Roundoff may leave a ~1e-16 diagonal, so
	// detection goes through RCond rather than an exact zero.
	a := newDenseData(3, 2, []float64{
		1, 2,
		2, 4,
		3, 6,
	})
	f := Factorize(a)
	if f.RCond() > 1e-14 {
		t.Fatalf("RCond = %v, want ~0 for singular matrix", f.RCond())
	}
}

func TestQRWideMatrixPanics(t *testing.T) {
	defer expectPanic(t, "wide matrix")
	Factorize(NewDense(2, 3))
}

func TestQTVecQVecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomDense(rng, 8, 4)
	f := Factorize(a)
	b := make([]float64, 8)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	orig := CloneVec(b)
	f.QTVec(b)
	qVec(f, b)
	if !VecEqualApprox(b, orig, 1e-12) {
		t.Fatalf("Q Qᵀ b != b")
	}
}

func TestQRZeroColumn(t *testing.T) {
	// A zero column must not produce NaNs; tau is zero for that reflector.
	a := newDenseData(3, 2, []float64{
		0, 1,
		0, 2,
		0, 3,
	})
	f := Factorize(a)
	if !f.qr.IsFinite() {
		t.Fatalf("QR of zero column produced non-finite values")
	}
	if f.RCond() != 0 {
		t.Fatalf("RCond should be 0 for singular R, got %v", f.RCond())
	}
}

func TestRCondWellConditioned(t *testing.T) {
	f := Factorize(Identity(4))
	if rc := f.RCond(); math.Abs(rc-1) > 1e-14 {
		t.Fatalf("RCond(I) = %v want 1", rc)
	}
}

// Property: applying Qᵀ preserves Euclidean norms (orthogonality of the
// implicit Householder product).
func TestQTVecPreservesNormProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		m := 3 + rng.Intn(12)
		n := 1 + rng.Intn(m)
		f := Factorize(randomDense(rng, m, n))
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		before := Norm2(b)
		f.QTVec(b)
		after := Norm2(b)
		if math.Abs(before-after) > 1e-10*math.Max(1, before) {
			t.Fatalf("Qᵀ changed the norm: %v -> %v", before, after)
		}
	}
}

// Property: the QR of a matrix with orthonormal columns has |R| ≈ I.
func TestQROfOrthonormalMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	q := qFactor(Factorize(randomDense(rng, 10, 4))) // orthonormal columns
	r := rFactor(Factorize(q))
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(math.Abs(r.At(i, j))-want) > 1e-10 {
				t.Fatalf("R of orthonormal input not ±I at (%d,%d): %v", i, j, r.At(i, j))
			}
		}
	}
}

// Property: least-squares residual is orthogonal to the column space.
func TestResidualOrthogonalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 25; trial++ {
		m := 4 + rng.Intn(12)
		n := 1 + rng.Intn(3)
		a := randomDense(rng, m, n)
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := Factorize(a).Solve(b)
		if err != nil {
			continue // singular draw; skip
		}
		r := SubVec(MatVec(a, x), b)
		atr := MatTVec(a, r)
		if NormInf(atr) > 1e-9 {
			t.Fatalf("trial %d: residual not orthogonal to range(A): %v", trial, atr)
		}
	}
}
