package oracle

import (
	"math"
	"math/rand"

	"github.com/perfmetrics/eventlens/internal/mat"
)

// Problems generates the deterministic randomized test problems the
// differential checks run on. Every problem is a pure function of (seed,
// case index), so a failing case can be reproduced from its report line
// alone.
type Problems struct {
	seed int64
}

// NewProblems returns a generator rooted at seed.
func NewProblems(seed int64) *Problems { return &Problems{seed: seed} }

// rng returns the RNG for one case, keyed by a stream label so the different
// check families never share a random sequence even at equal indices.
func (p *Problems) rng(stream string, i int) *rand.Rand {
	h := p.seed
	for _, c := range stream {
		h = h*1315423911 + int64(c)
	}
	return rand.New(rand.NewSource(h + int64(i)*0x9E3779B9))
}

// dims draws random dimensions m >= n within the pipeline's typical range
// (bases are tall and thin: a handful of dimensions over tens of points).
func dims(r *rand.Rand) (m, n int) {
	n = 2 + r.Intn(7)    // 2..8 columns
	m = n + r.Intn(40)   // up to ~48 rows
	if m == n && n > 2 { // keep a few exactly-square cases
		m += r.Intn(2)
	}
	return m, n
}

// Gaussian returns an m-by-n matrix of standard normal entries. Column norms
// of Gaussian matrices are almost surely well separated, which keeps the
// pivot choices of the two QRCP implementations unambiguous.
func (p *Problems) Gaussian(stream string, i int) *mat.Dense {
	r := p.rng(stream, i)
	m, n := dims(r)
	return gaussian(r, m, n)
}

func gaussian(r *rand.Rand, m, n int) *mat.Dense {
	a := mat.NewDense(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, r.NormFloat64())
		}
	}
	return a
}

// Graded returns a Gaussian matrix whose columns are scaled across several
// orders of magnitude, stressing the pivot ordering and the scaled norm
// computations without making the problem ill-conditioned.
func (p *Problems) Graded(stream string, i int) *mat.Dense {
	r := p.rng(stream, i)
	m, n := dims(r)
	a := gaussian(r, m, n)
	for j := 0; j < n; j++ {
		scale := math.Pow(10, float64(r.Intn(9)-4)) // 1e-4 .. 1e4
		for i2 := 0; i2 < m; i2++ {
			a.Set(i2, j, a.At(i2, j)*scale)
		}
	}
	return a
}

// RankDeficient returns an m-by-n matrix of known rank r < n (the product of
// random m-by-r and r-by-n Gaussian factors) along with r.
func (p *Problems) RankDeficient(stream string, i int) (*mat.Dense, int) {
	rng := p.rng(stream, i)
	m, n := dims(rng)
	if n < 3 {
		n = 3
	}
	if m < n {
		m = n
	}
	rank := 1 + rng.Intn(n-1) // 1..n-1
	left := gaussian(rng, m, rank)
	right := gaussian(rng, rank, n)
	return mat.MatMul(left, right), rank
}

// Vector returns a length-m standard normal vector from the case's RNG
// stream, independent of the matrix entries.
func (p *Problems) Vector(stream string, i, m int) []float64 {
	r := p.rng(stream+"/rhs", i)
	v := make([]float64, m)
	for j := range v {
		v[j] = r.NormFloat64()
	}
	return v
}
