package mat

import (
	"math"
	"math/rand"
	"testing"
)

// The fused kernels exist to remove hot-loop allocations, but the pipeline's
// determinism guarantee means they must be bitwise identical to the composed
// forms they replace — not merely close.

func fusedTestVectors(t *testing.T, n int, seed int64) (x, y []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x = make([]float64, n)
	y = make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	return x, y
}

func TestSubNorm2MatchesComposed(t *testing.T) {
	cases := [][2][]float64{
		{{}, {}},
		{{1}, {1}},
		{{0, 0, 0}, {0, 0, 0}},
		{{1, 2, 3}, {3, 2, 1}},
		// Scaling-sensitive magnitudes: a naive sum-of-squares would overflow
		// or flush to zero here, and any deviation from Norm2's exact scaling
		// sequence shows up as a bit difference.
		{{1e300, -1e300, 5e299}, {-1e300, 1e300, 0}},
		{{1e-300, 2e-300, 0}, {0, 1e-300, -3e-300}},
		{{1e308, 1e-308}, {-1e308, -1e-308}},
	}
	for i := 0; i < 50; i++ {
		x, y := fusedTestVectors(t, 1+i%17, int64(i))
		cases = append(cases, [2][]float64{x, y})
	}
	for i, c := range cases {
		got := SubNorm2(c[0], c[1])
		want := Norm2(SubVec(c[0], c[1]))
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("case %d: SubNorm2 = %v (%x), Norm2(SubVec) = %v (%x)",
				i, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

func TestResidualNorm2MatchesComposed(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		m, n := 1+rng.Intn(12), 1+rng.Intn(6)
		a := NewDense(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
		}
		x := make([]float64, n)
		b := make([]float64, m)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		got := ResidualNorm2(a, x, b)
		want := Norm2(SubVec(MatVec(a, x), b))
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("trial %d (%dx%d): ResidualNorm2 = %v, composed = %v", trial, m, n, got, want)
		}
	}
	// Exact residual: A*x == b must give exactly zero.
	a := NewDense(2, 2)
	a.Set(0, 0, 1)
	a.Set(1, 1, 1)
	if got := ResidualNorm2(a, []float64{3, 4}, []float64{3, 4}); got != 0 {
		t.Errorf("exact solve residual = %v, want 0", got)
	}
}

func TestFusedKernelsAllocFree(t *testing.T) {
	x, y := fusedTestVectors(t, 64, 1)
	a := NewDense(8, 4)
	xs := make([]float64, 4)
	b := make([]float64, 8)
	if allocs := testing.AllocsPerRun(100, func() { SubNorm2(x, y) }); allocs != 0 {
		t.Errorf("SubNorm2 allocates %v per call", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { ResidualNorm2(a, xs, b) }); allocs != 0 {
		t.Errorf("ResidualNorm2 allocates %v per call", allocs)
	}
	src := randomDense(rand.New(rand.NewSource(2)), 8, 4)
	w, tau := NewDense(8, 4), make([]float64, 4)
	if allocs := testing.AllocsPerRun(100, func() {
		copy(w.data, src.data)
		HouseholderStep(w, 1, tau)
	}); allocs != 0 {
		t.Errorf("HouseholderStep allocates %v per call", allocs)
	}
}

// TestColNormMatchesNorm2: the Householder step and the pivot searches take
// their column norms in place, bitwise equal to Norm2 over a copy of the
// column segment.
func TestColNormMatchesNorm2(t *testing.T) {
	a := newDenseData(4, 2, []float64{
		1e300, 0,
		-1e300, 1e-300,
		5e299, 0,
		0, -3e-300,
	})
	rng := rand.New(rand.NewSource(3))
	for _, d := range []*Dense{a, NewDense(3, 2), randomDense(rng, 9, 5), randomDense(rng, 1, 3)} {
		m, n := d.Dims()
		for col := 0; col < n; col++ {
			for row := 0; row < m; row++ {
				got := ColNorm(d, row, col)
				want := Norm2(d.Col(col)[row:])
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%dx%d [%d:, %d]: ColNorm = %v, Norm2 = %v", m, n, row, col, got, want)
				}
			}
		}
	}
}

func TestSolveScratchMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m, n := 9, 4
	a := NewDense(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	f := Factorize(a)
	scratch := make([]float64, m)
	for trial := 0; trial < 10; trial++ {
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		want, err := f.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		// Scratch is reused across solves (and deliberately left dirty).
		got, err := f.SolveScratch(b, scratch)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("trial %d: x[%d] = %v via scratch, %v via Solve", trial, j, got[j], want[j])
			}
		}
	}
	if _, err := f.SolveScratch(make([]float64, m), make([]float64, m-1)); err == nil {
		t.Fatal("short scratch accepted")
	}
	if _, err := f.SolveScratch(make([]float64, m-1), scratch); err == nil {
		t.Fatal("short rhs accepted")
	}
}
