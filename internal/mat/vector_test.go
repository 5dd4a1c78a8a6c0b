package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v want 32", got)
	}
}

func TestDotLengthMismatchPanics(t *testing.T) {
	defer expectPanic(t, "length mismatch")
	Dot([]float64{1}, []float64{1, 2})
}

// TestCosine: the fused sums equal the composed Dot form bitwise, and the
// zero rules hold.
func TestCosine(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		x, y := make([]float64, 1+trial%9), make([]float64, 1+trial%9)
		for i := range x {
			x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		want := Dot(x, y) / (math.Sqrt(Dot(x, x)) * math.Sqrt(Dot(y, y)))
		if got := Cosine(x, y); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: Cosine = %v, composed = %v", trial, got, want)
		}
	}
	if got := Cosine([]float64{0, 0}, []float64{0, 0}); got != 1 {
		t.Errorf("zero vs zero = %v, want 1", got)
	}
	if got := Cosine([]float64{0, 0}, []float64{1, 2}); got != 0 {
		t.Errorf("zero vs nonzero = %v, want 0", got)
	}
	if got := Cosine([]float64{2, 4}, []float64{1, 2}); math.Abs(got-1) > 1e-15 {
		t.Errorf("parallel vectors = %v, want 1", got)
	}
	defer expectPanic(t, "length mismatch")
	Cosine([]float64{1}, []float64{1, 2})
}

func TestNorm2Basic(t *testing.T) {
	if got := Norm2([]float64{3, 4}); math.Abs(got-5) > 1e-15 {
		t.Fatalf("Norm2 = %v want 5", got)
	}
	if Norm2(nil) != 0 {
		t.Fatalf("Norm2(nil) should be 0")
	}
}

func TestNorm2OverflowSafe(t *testing.T) {
	big := math.MaxFloat64 / 2
	got := Norm2([]float64{big, big})
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("Norm2 overflowed: %v", got)
	}
	want := big * math.Sqrt2
	if math.Abs(got-want)/want > 1e-14 {
		t.Fatalf("Norm2 = %v want %v", got, want)
	}
}

func TestNorm2UnderflowSafe(t *testing.T) {
	tiny := 1e-300
	got := Norm2([]float64{tiny, tiny})
	if got == 0 {
		t.Fatalf("Norm2 underflowed to zero")
	}
}

func TestNorm1AndInf(t *testing.T) {
	x := []float64{-1, 2, -3}
	if NormInf(x) != 3 {
		t.Fatalf("NormInf = %v", NormInf(x))
	}
}

func TestAxpy(t *testing.T) {
	y := []float64{1, 1}
	Axpy(2, []float64{3, 4}, y)
	if y[0] != 7 || y[1] != 9 {
		t.Fatalf("Axpy = %v", y)
	}
	Axpy(0, []float64{100, 100}, y) // alpha=0 fast path
	if y[0] != 7 {
		t.Fatalf("Axpy alpha=0 should not modify y")
	}
}

func TestScaleVec(t *testing.T) {
	x := []float64{2, -4}
	ScaleVec(-0.5, x)
	if x[0] != -1 || x[1] != 2 {
		t.Fatalf("ScaleVec = %v", x)
	}
}

func TestAddSubVec(t *testing.T) {
	d := SubVec([]float64{4, 6}, []float64{3, 4})
	if d[0] != 1 || d[1] != 2 {
		t.Fatalf("SubVec = %v", d)
	}
}

func TestMean(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatalf("Mean wrong")
	}
	if Mean(nil) != 0 {
		t.Fatalf("Mean(nil) should be 0")
	}
}

func TestAllZero(t *testing.T) {
	if !AllZero([]float64{0, 0}) || AllZero([]float64{0, 1e-300}) {
		t.Fatalf("AllZero wrong")
	}
}

func TestVecEqualApprox(t *testing.T) {
	if !VecEqualApprox([]float64{1}, []float64{1 + 1e-12}, 1e-10) {
		t.Fatalf("should match within tol")
	}
	if VecEqualApprox([]float64{1}, []float64{1, 2}, 1) {
		t.Fatalf("length mismatch should fail")
	}
}

// Property: ‖x‖₂² == x·x (up to roundoff) for random vectors.
func TestNorm2DotProperty(t *testing.T) {
	f := func(xs []float64) bool {
		for i, v := range xs {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				xs[i] = math.Mod(v, 1000)
				if math.IsNaN(xs[i]) {
					xs[i] = 1
				}
			}
		}
		n := Norm2(xs)
		d := Dot(xs, xs)
		return math.Abs(n*n-d) <= 1e-9*math.Max(1, d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: triangle inequality ‖x+y‖ <= ‖x‖+‖y‖.
func TestTriangleInequalityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(20)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * 100
			y[i] = rng.NormFloat64() * 100
		}
		sum := append([]float64(nil), y...)
		Axpy(1, x, sum)
		if Norm2(sum) > Norm2(x)+Norm2(y)+1e-9 {
			t.Fatalf("triangle inequality violated")
		}
	}
}

// Property: Axpy then inverse Axpy restores y.
func TestAxpyInverseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(16)
		x := make([]float64, n)
		y := make([]float64, n)
		orig := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		copy(orig, y)
		Axpy(3, x, y)
		Axpy(-3, x, y)
		if !VecEqualApprox(y, orig, 1e-12) {
			t.Fatalf("Axpy not invertible: %v vs %v", y, orig)
		}
	}
}
