package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sortMedianReference is MedianOverThreads with sort.Float64s at every
// thread count, kept verbatim as the differential oracle.
func sortMedianReference(vectors [][]float64) []float64 {
	if len(vectors) == 1 {
		out := make([]float64, len(vectors[0]))
		copy(out, vectors[0])
		return out
	}
	n := len(vectors[0])
	out := make([]float64, n)
	vals := make([]float64, len(vectors))
	for p := 0; p < n; p++ {
		for t, v := range vectors {
			vals[t] = v[p]
		}
		sort.Float64s(vals)
		mid := len(vals) / 2
		if len(vals)%2 == 1 {
			out[p] = vals[mid]
		} else {
			out[p] = (vals[mid-1] + vals[mid]) / 2
		}
	}
	return out
}

func sameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: point %d: %v (%x) != %v (%x)",
				label, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// vectorsOf shapes one value row per thread from a flat per-thread slice.
func vectorsOf(vals []float64) [][]float64 {
	out := make([][]float64, len(vals))
	for i, v := range vals {
		out[i] = []float64{v}
	}
	return out
}

// TestMedianMatchesSortRandom drives the median against the
// sort-based oracle over random NaN-free inputs: every length 1..40 (odd and
// even, below and above the insertion cutoff), continuous values and heavily
// tied values drawn from a tiny grid.
func TestMedianMatchesSortRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for threads := 1; threads <= 40; threads++ {
		for trial := 0; trial < 50; trial++ {
			vals := make([]float64, threads)
			for i := range vals {
				if trial%2 == 0 {
					vals[i] = rng.NormFloat64() * 1e3
				} else {
					vals[i] = float64(rng.Intn(4)) // heavy ties
				}
			}
			got := MedianOverThreads(vectorsOf(vals))
			want := sortMedianReference(vectorsOf(vals))
			sameBits(t, "random", got, want)
		}
	}
}

// TestMedianMatchesSortAdversarial pins the classic sorting adversaries:
// sorted, reverse-sorted, organ-pipe, all-equal, alternating, and
// near-duplicate inputs, across the cutoff boundary.
func TestMedianMatchesSortAdversarial(t *testing.T) {
	for _, threads := range []int{2, 3, 11, 12, 13, 14, 25, 64, 101} {
		shapes := map[string]func(i int) float64{
			"sorted":      func(i int) float64 { return float64(i) },
			"reverse":     func(i int) float64 { return float64(threads - i) },
			"organ-pipe":  func(i int) float64 { return math.Min(float64(i), float64(threads-1-i)) },
			"all-equal":   func(i int) float64 { return 7.5 },
			"alternating": func(i int) float64 { return float64(i % 2) },
			"two-dupes":   func(i int) float64 { return float64(i % 3 / 2) },
		}
		names := make([]string, 0, len(shapes))
		for name := range shapes {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			vals := make([]float64, threads)
			for i := range vals {
				vals[i] = shapes[name](i)
			}
			got := MedianOverThreads(vectorsOf(vals))
			want := sortMedianReference(vectorsOf(vals))
			sameBits(t, name, got, want)
		}
	}
}

// TestMedianPermutationInvariant checks the median is a function of the
// multiset: shuffling the thread order never changes the result bits.
// (Mixed-sign zero ties are excluded — for those the sort-based median was
// already input-order-dependent, since stable sorting preserves whichever
// zero arrived first.)
func TestMedianPermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, threads := range []int{3, 4, 12, 13, 31, 32} {
		vals := make([]float64, threads)
		for i := range vals {
			vals[i] = float64(rng.Intn(21) - 10) // ties likely, no -0
		}
		want := MedianOverThreads(vectorsOf(vals))
		for trial := 0; trial < 30; trial++ {
			rng.Shuffle(threads, func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
			sameBits(t, "permuted", MedianOverThreads(vectorsOf(vals)), want)
		}
	}
}

// TestMedianSignedZeroSmall proves bit-exactness against the sorted median
// for mixed-sign zero ties at every thread count on the insertion path —
// the one tie class where "equal" floats differ in bits.
func TestMedianSignedZeroSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	neg := math.Copysign(0, -1)
	for threads := 2; threads <= 12; threads++ {
		for trial := 0; trial < 200; trial++ {
			vals := make([]float64, threads)
			for i := range vals {
				switch rng.Intn(3) {
				case 0:
					vals[i] = 0
				case 1:
					vals[i] = neg
				default:
					vals[i] = rng.NormFloat64()
				}
			}
			got := MedianOverThreads(vectorsOf(vals))
			want := sortMedianReference(vectorsOf(vals))
			sameBits(t, "signed-zero", got, want)
		}
	}
}

// TestMedianDoesNotMutateInput locks the no-mutation contract: reductions
// run over shared measurement vectors.
func TestMedianDoesNotMutateInput(t *testing.T) {
	vectors := [][]float64{{3, 1}, {1, 5}, {2, 0}, {5, 4}, {4, 2}}
	want := [][]float64{{3, 1}, {1, 5}, {2, 0}, {5, 4}, {4, 2}}
	_ = MedianOverThreads(vectors)
	for i := range vectors {
		sameBits(t, "input row", vectors[i], want[i])
	}
}

// TestMedianMultiPointVectors exercises the real call shape — many points
// per vector — against the oracle.
func TestMedianMultiPointVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, threads := range []int{2, 4, 5, 16} {
		vectors := make([][]float64, threads)
		for t := range vectors {
			vectors[t] = make([]float64, 23)
			for p := range vectors[t] {
				vectors[t][p] = rng.ExpFloat64()
			}
		}
		sameBits(t, "multi-point", MedianOverThreads(vectors), sortMedianReference(vectors))
	}
}
