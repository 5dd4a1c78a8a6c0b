package mat

import (
	"fmt"
	"math/rand"
	"testing"
)

// validPerm reports an error if perm is not a permutation of 0..n-1.
func validPerm(perm []int) error {
	seen := make([]bool, len(perm))
	for _, p := range perm {
		if p < 0 || p >= len(perm) || seen[p] {
			return fmt.Errorf("mat: invalid permutation %v", perm)
		}
		seen[p] = true
	}
	return nil
}

func TestQRCPFullRank(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randomDense(rng, 8, 5)
	res := QRCP(a, 0)
	if res.Rank != 5 {
		t.Fatalf("rank = %d want 5", res.Rank)
	}
	if err := validPerm(res.Perm); err != nil {
		t.Fatal(err)
	}
}

func TestQRCPRankDeficient(t *testing.T) {
	// Third column = 2*first + second: rank 2.
	a := NewDense(6, 3)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 6; i++ {
		c0 := rng.NormFloat64()
		c1 := rng.NormFloat64()
		a.Set(i, 0, c0)
		a.Set(i, 1, c1)
		a.Set(i, 2, 2*c0+c1)
	}
	res := QRCP(a, 0)
	if res.Rank != 2 {
		t.Fatalf("rank = %d want 2", res.Rank)
	}
	// The independent columns must themselves be full rank.
	sub := a.ColSlice(res.Perm[:res.Rank])
	if QRCP(sub, 0).Rank != 2 {
		t.Fatalf("selected columns are not independent")
	}
}

func TestQRCPZeroMatrix(t *testing.T) {
	res := QRCP(NewDense(4, 3), 0)
	if res.Rank != 0 {
		t.Fatalf("rank of zero matrix = %d want 0", res.Rank)
	}
}

func TestQRCPDuplicateColumns(t *testing.T) {
	col := []float64{1, 2, 3, 4}
	a := FromColumns([][]float64{col, col, col})
	res := QRCP(a, 0)
	if res.Rank != 1 {
		t.Fatalf("rank = %d want 1", res.Rank)
	}
}

func TestQRCPScaledColumns(t *testing.T) {
	// A column that is a scaled version of another is dependent.
	a := FromColumns([][]float64{
		{1, 1, 1},
		{2, 2, 2},
		{0, 1, 0},
	})
	res := QRCP(a, 0)
	if res.Rank != 2 {
		t.Fatalf("rank = %d want 2", res.Rank)
	}
}

func TestQRCPPicksLargestNormFirst(t *testing.T) {
	// Classical pivoting must put the large-norm column first — this is the
	// behaviour the paper's specialized scheme replaces.
	small := []float64{1, 0, 0}
	big := []float64{0, 1000, 0}
	a := FromColumns([][]float64{small, big})
	res := QRCP(a, 0)
	if res.Perm[0] != 1 {
		t.Fatalf("classical QRCP should pivot the large column first, perm=%v", res.Perm)
	}
}

func TestQRCPWideMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randomDense(rng, 3, 6)
	res := QRCP(a, 0)
	if res.Rank != 3 {
		t.Fatalf("wide matrix rank = %d want 3", res.Rank)
	}
	if err := validPerm(res.Perm); err != nil {
		t.Fatal(err)
	}
}

func TestQRCPNoiseTolerance(t *testing.T) {
	// Nearly dependent columns: with a loose tolerance they count as one.
	a := FromColumns([][]float64{
		{1, 1, 1, 1},
		{1 + 1e-8, 1 - 1e-8, 1, 1},
	})
	strict := QRCP(a, 1e-12)
	loose := QRCP(a, 1e-4)
	if strict.Rank != 2 {
		t.Fatalf("strict rank = %d want 2", strict.Rank)
	}
	if loose.Rank != 1 {
		t.Fatalf("loose rank = %d want 1", loose.Rank)
	}
}

// Property: rank(A) never exceeds min(m,n), and Perm is always valid.
func TestQRCPRankBoundProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		m := 1 + rng.Intn(10)
		n := 1 + rng.Intn(10)
		a := randomDense(rng, m, n)
		res := QRCP(a, 0)
		if res.Rank > min(m, n) {
			t.Fatalf("rank %d exceeds min(%d,%d)", res.Rank, m, n)
		}
		if err := validPerm(res.Perm); err != nil {
			t.Fatal(err)
		}
	}
}

// Property: appending a linear combination of existing columns never
// increases the rank.
func TestQRCPRankInvariantProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 30; trial++ {
		m := 4 + rng.Intn(8)
		n := 1 + rng.Intn(4)
		a := randomDense(rng, m, n)
		base := QRCP(a, 0).Rank
		combo := make([]float64, m)
		for j := 0; j < n; j++ {
			Axpy(rng.NormFloat64(), a.Col(j), combo)
		}
		cols := make([][]float64, n+1)
		for j := 0; j < n; j++ {
			cols[j] = a.Col(j)
		}
		cols[n] = combo
		ext := QRCP(FromColumns(cols), 1e-10)
		if ext.Rank > base {
			t.Fatalf("rank grew from %d to %d after adding dependent column", base, ext.Rank)
		}
	}
}
