package core

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/perfmetrics/eventlens/internal/mat"
)

func TestRoundToGrid(t *testing.T) {
	// With alpha = 0.01: 1.002 -> 1.0, 0.001 -> 0 (the paper's example).
	cases := []struct{ u, alpha, want float64 }{
		{1.002, 0.01, 1.0},
		{0.001, 0.01, 0},
		{-0.5, 0.01, -0.5},
		{1.5, 0.01, 1.5},
		{1.0002, 5e-4, 1.0},
		{7, 0, 7}, // alpha <= 0 disables rounding
	}
	for _, c := range cases {
		if got := RoundToGrid(c.u, c.alpha); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("RoundToGrid(%v, %v) = %v want %v", c.u, c.alpha, got, c.want)
		}
	}
}

func TestScore(t *testing.T) {
	if Score(0) != 0 {
		t.Fatalf("Sc(0) != 0")
	}
	if Score(1) != 1 {
		t.Fatalf("Sc(1) != 1")
	}
	if Score(2.5) != 2.5 {
		t.Fatalf("Sc(2.5) != 2.5")
	}
	if Score(0.5) != 2 {
		t.Fatalf("Sc(0.5) != 2")
	}
}

func TestColumnScorePaperExample(t *testing.T) {
	// The paper's worked example: alpha = 0.01,
	// (1.002, 0.001, -0.5, 1.5) scores 1 + 0 + 1/0.5 + 1.5 = 4.5.
	col := []float64{1.002, 0.001, -0.5, 1.5}
	if got := ColumnScore(col, 0.01); math.Abs(got-4.5) > 1e-12 {
		t.Fatalf("paper example score = %v want 4.5", got)
	}
}

func TestScoreRoundTripIdempotent(t *testing.T) {
	// Rounding an already-rounded value must not change it.
	f := func(raw int16) bool {
		alpha := 5e-4
		u := float64(raw) / 100
		once := RoundToGrid(u, alpha)
		twice := RoundToGrid(once, alpha)
		return math.Abs(once-twice) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSpecializedQRCPPrefersBasisLikeColumns(t *testing.T) {
	// The defining difference from classical QRCP: a huge-norm column
	// (cycles-like) must NOT be picked before unit basis-like columns.
	basisCol := []float64{1, 0, 0, 0}
	basisCol2 := []float64{0, 1, 0, 0}
	big := []float64{5000, 3000, 4000, 1000}
	x := mat.FromColumns([][]float64{big, basisCol, basisCol2})
	res := SpecializedQRCP(x, 5e-4)
	sel := res.Selected()
	if sel[0] != 1 && sel[0] != 2 {
		t.Fatalf("first pivot should be a basis-like column, got %d (perm %v)", sel[0], res.Perm)
	}
	// Classical QRCP, by contrast, picks the big column first.
	classical := mat.QRCP(x, 0)
	if classical.Perm[0] != 0 {
		t.Fatalf("classical QRCP should pick the large column first")
	}
}

func TestSpecializedQRCPSkipsDependentColumns(t *testing.T) {
	a := []float64{1, 0, 0}
	b := []float64{0, 1, 0}
	sum := []float64{1, 1, 0} // dependent on a and b
	x := mat.FromColumns([][]float64{a, sum, b})
	res := SpecializedQRCP(x, 5e-4)
	if res.Rank != 2 {
		t.Fatalf("rank = %d want 2", res.Rank)
	}
	sel := res.Selected()
	for _, s := range sel {
		if s == 1 {
			t.Fatalf("dependent combined column selected over pure columns: %v", sel)
		}
	}
}

func TestSpecializedQRCPNoiseToleranceMergesNearDuplicates(t *testing.T) {
	a := []float64{1, 0, 0, 0}
	aNoisy := []float64{1.0001, 0.0002, -0.0001, 0} // same column up to noise
	x := mat.FromColumns([][]float64{a, aNoisy})
	res := SpecializedQRCP(x, 5e-3)
	if res.Rank != 1 {
		t.Fatalf("noisy duplicate should not increase rank: rank = %d", res.Rank)
	}
}

func TestSpecializedQRCPTerminatesOnAllSmall(t *testing.T) {
	x := mat.FromColumns([][]float64{
		{1e-6, 0, 0},
		{0, 1e-6, 0},
	})
	res := SpecializedQRCP(x, 5e-4)
	if res.Rank != 0 {
		t.Fatalf("near-zero columns must not be selected: rank = %d", res.Rank)
	}
}

func TestSpecializedQRCPTieBreakDeterministic(t *testing.T) {
	// Two identical-score, identical-norm columns: the earliest wins.
	a := []float64{1, 0, 0}
	b := []float64{0, 1, 0}
	x := mat.FromColumns([][]float64{a, b})
	res := SpecializedQRCP(x, 5e-4)
	if res.Selected()[0] != 0 {
		t.Fatalf("tie should break to the earliest column, got %v", res.Selected())
	}
}

func TestSpecializedQRCPScaledColumnPenalized(t *testing.T) {
	// A 2x-scaled version of a basis vector scores worse than the 1x one.
	pure := []float64{1, 0, 0}
	scaled := []float64{2, 0, 0}
	other := []float64{0, 1, 0}
	x := mat.FromColumns([][]float64{scaled, pure, other})
	res := SpecializedQRCP(x, 5e-4)
	if res.Selected()[0] != 1 {
		t.Fatalf("the unit column should be preferred over the scaled one: %v", res.Selected())
	}
}

func TestSpecializedQRCPFractionalPenalized(t *testing.T) {
	// A column with fractional 0.5 entries (score 2 per entry) loses to a
	// clean 0/1 column.
	frac := []float64{0.5, 0.5, 0}
	clean := []float64{0, 0, 1}
	x := mat.FromColumns([][]float64{frac, clean})
	res := SpecializedQRCP(x, 5e-4)
	if res.Selected()[0] != 1 {
		t.Fatalf("clean column should be preferred: %v", res.Selected())
	}
}

func TestSpecializedQRCPPermValid(t *testing.T) {
	x := mat.FromColumns([][]float64{
		{1, 0, 0, 0},
		{0, 1, 0, 0},
		{1, 1, 0, 0},
		{0, 0, 1, 0},
		{2, 0, 2, 0},
	})
	res := SpecializedQRCP(x, 5e-4)
	seen := make([]bool, len(res.Perm))
	for _, p := range res.Perm {
		if p < 0 || p >= len(res.Perm) || seen[p] {
			t.Fatalf("invalid permutation %v", res.Perm)
		}
		seen[p] = true
	}
	// Selected columns must be linearly independent.
	sub := x.ColSlice(res.Selected())
	if mat.QRCP(sub, 0).Rank != res.Rank {
		t.Fatalf("selected columns are not independent")
	}
}

// Property: the selected columns are always linearly independent, and rank
// never exceeds matrix dimensions.
func TestSpecializedQRCPIndependenceProperty(t *testing.T) {
	f := func(seed uint8) bool {
		// Construct a random small matrix with some duplicate columns.
		r := int(seed%4) + 2
		base := mat.Identity(r)
		cols := make([][]float64, 0, r+2)
		for j := 0; j < r; j++ {
			cols = append(cols, base.Col(j))
		}
		cols = append(cols, base.Col(0))                  // duplicate
		cols = append(cols, mat.SubVec(cols[0], cols[1])) // combination
		x := mat.FromColumns(cols)
		res := SpecializedQRCP(x, 1e-4)
		if res.Rank > r {
			return false
		}
		sub := x.ColSlice(res.Selected())
		return mat.QRCP(sub, 0).Rank == res.Rank
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
