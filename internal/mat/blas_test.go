package mat

import (
	"math/rand"
	"testing"
)

func TestMatVec(t *testing.T) {
	a := newDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	y := MatVec(a, []float64{1, 0, -1})
	if y[0] != -2 || y[1] != -2 {
		t.Fatalf("MatVec = %v", y)
	}
}

func TestMatTVec(t *testing.T) {
	a := newDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	y := MatTVec(a, []float64{1, 1})
	if y[0] != 5 || y[1] != 7 || y[2] != 9 {
		t.Fatalf("MatTVec = %v", y)
	}
}

func TestMatVecDimensionPanics(t *testing.T) {
	defer expectPanic(t, "dimension mismatch")
	MatVec(NewDense(2, 3), []float64{1, 2})
}

func TestMatMulSmall(t *testing.T) {
	a := newDenseData(2, 2, []float64{1, 2, 3, 4})
	b := newDenseData(2, 2, []float64{5, 6, 7, 8})
	c := MatMul(a, b)
	want := newDenseData(2, 2, []float64{19, 22, 43, 50})
	if !equalApprox(c, want, 0) {
		t.Fatalf("MatMul =\n%v want\n%v", c, want)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	a := randomDense(rng, 7, 7)
	if !equalApprox(MatMul(a, Identity(7)), a, 0) {
		t.Fatalf("A*I != A")
	}
	if !equalApprox(MatMul(Identity(7), a), a, 0) {
		t.Fatalf("I*A != A")
	}
}

func TestMatMulParallelMatchesSerial(t *testing.T) {
	// Big enough to trigger the parallel path; verify against the
	// straightforward triple loop.
	rng := rand.New(rand.NewSource(41))
	a := randomDense(rng, 80, 70)
	b := randomDense(rng, 70, 90)
	got := MatMul(a, b)
	want := NewDense(80, 90)
	for i := 0; i < 80; i++ {
		for j := 0; j < 90; j++ {
			var s float64
			for k := 0; k < 70; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			want.Set(i, j, s)
		}
	}
	if !equalApprox(got, want, 1e-9) {
		t.Fatalf("parallel MatMul diverges from reference")
	}
}

func TestMatMulDimensionPanics(t *testing.T) {
	defer expectPanic(t, "inner dimension mismatch")
	MatMul(NewDense(2, 3), NewDense(2, 3))
}

func TestMatTMul(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := randomDense(rng, 6, 4)
	b := randomDense(rng, 6, 5)
	got := MatTMul(a, b)
	want := MatMul(a.Transpose(), b)
	if !equalApprox(got, want, 1e-10) {
		t.Fatalf("MatTMul != Aᵀ*B")
	}
}

// Property: (A*B)ᵀ == Bᵀ*Aᵀ.
func TestMatMulTransposeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 20; trial++ {
		m := 1 + rng.Intn(8)
		k := 1 + rng.Intn(8)
		n := 1 + rng.Intn(8)
		a := randomDense(rng, m, k)
		b := randomDense(rng, k, n)
		lhs := MatMul(a, b).Transpose()
		rhs := MatMul(b.Transpose(), a.Transpose())
		if !equalApprox(lhs, rhs, 1e-10) {
			t.Fatalf("(AB)ᵀ != BᵀAᵀ")
		}
	}
}

func BenchmarkMatMul64(b *testing.B) {
	rng := rand.New(rand.NewSource(50))
	x := randomDense(rng, 64, 64)
	y := randomDense(rng, 64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}

func BenchmarkMatMul256Parallel(b *testing.B) {
	rng := rand.New(rand.NewSource(51))
	x := randomDense(rng, 256, 256)
	y := randomDense(rng, 256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}

func BenchmarkQRFactorize(b *testing.B) {
	rng := rand.New(rand.NewSource(52))
	a := randomDense(rng, 128, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Factorize(a)
	}
}

func BenchmarkQRCPClassical(b *testing.B) {
	rng := rand.New(rand.NewSource(53))
	a := randomDense(rng, 96, 48)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		QRCP(a, 0)
	}
}

func BenchmarkSVD(b *testing.B) {
	rng := rand.New(rand.NewSource(54))
	a := randomDense(rng, 48, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeSVD(a)
	}
}
