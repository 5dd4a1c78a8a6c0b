package similarity

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// testThreshold is the cosine threshold for tests that exercise something
// other than the threshold itself.
const testThreshold = 0.9995

func TestClusterGroupsProportionalKernels(t *testing.T) {
	// Three families: scaled copies cluster together, the orthogonal kernel
	// stands alone, zero kernels share the zero cluster.
	vectors := [][]float64{
		{1, 2, 0, 0},   // 0: family A
		{2, 4, 0, 0},   // 1: family A (x2)
		{0, 0, 3, 1},   // 2: family B
		{0, 0, 6, 2},   // 3: family B (x2)
		{0, 0, 0, 0},   // 4: zero
		{5, 10, 0, 0},  // 5: family A (x5)
		{0, 0, 0, 0},   // 6: zero
		{-1, 2, 1, -3}, // 7: alone
	}
	res, err := Cluster(vectors, 0.999)
	if err != nil {
		t.Fatalf("Cluster: %v", err)
	}
	want := [][]int{{0, 1, 5}, {2, 3}, {4, 6}, {7}}
	if !reflect.DeepEqual(res.Clusters, want) {
		t.Fatalf("clusters = %v, want %v", res.Clusters, want)
	}
	if wantSel := []int{0, 2, 4, 7}; !reflect.DeepEqual(res.Selected, wantSel) {
		t.Fatalf("selected = %v, want %v", res.Selected, wantSel)
	}
	for c, members := range res.Clusters {
		for _, i := range members {
			if res.Assign[i] != c {
				t.Fatalf("assign[%d] = %d, want %d", i, res.Assign[i], c)
			}
		}
	}
}

func TestClusterInputErrors(t *testing.T) {
	cases := []struct {
		name      string
		vectors   [][]float64
		threshold float64
		want      error
	}{
		{"empty", nil, testThreshold, ErrNoKernels},
		{"no features", [][]float64{{}}, testThreshold, ErrEmptyVector},
		{"ragged", [][]float64{{1, 2}, {1}}, testThreshold, ErrRagged},
		{"nan", [][]float64{{1, math.NaN()}}, testThreshold, ErrNonFinite},
		{"+inf", [][]float64{{math.Inf(1), 0}}, testThreshold, ErrNonFinite},
		{"-inf", [][]float64{{0, math.Inf(-1)}}, testThreshold, ErrNonFinite},
		{"threshold too high", [][]float64{{1, 2}}, 1.5, ErrThreshold},
		{"threshold zero", [][]float64{{1, 2}}, 0, ErrThreshold},
		{"threshold negative", [][]float64{{1, 2}}, -0.5, ErrThreshold},
		{"threshold nan", [][]float64{{1, 2}}, math.NaN(), ErrThreshold},
	}
	for _, tc := range cases {
		if _, err := Cluster(tc.vectors, tc.threshold); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestClusterZeroVarianceColumn(t *testing.T) {
	// A constant nonzero column and an all-zero column must classify, not
	// error: the zero column drops out, the constant one rescales to 1.
	vectors := [][]float64{
		{7, 0, 1, 2},
		{7, 0, 2, 4},
		{7, 0, -3, 1},
	}
	res, err := Cluster(vectors, 0.9999)
	if err != nil {
		t.Fatalf("Cluster: %v", err)
	}
	if got := len(res.Clusters); got < 2 {
		t.Fatalf("constant columns collapsed distinct kernels: %v", res.Clusters)
	}
}

func TestExplainedVarianceZeroSpread(t *testing.T) {
	vectors := [][]float64{{1, 2}, {1, 2}, {1, 2}}
	res, err := Cluster(vectors, testThreshold)
	if err != nil {
		t.Fatalf("Cluster: %v", err)
	}
	if len(res.Clusters) != 1 {
		t.Fatalf("identical kernels split: %v", res.Clusters)
	}
}

// randomKernels draws a kernel set with deliberate near-duplicates so the
// property tests exercise both merged and singleton clusters.
func randomKernels(rng *rand.Rand, n, f int) [][]float64 {
	base := make([][]float64, 0, n)
	for len(base) < n {
		v := make([]float64, f)
		for j := range v {
			v[j] = math.Round(rng.NormFloat64() * 100)
		}
		base = append(base, v)
		// Half the time, follow with a scaled copy (same direction).
		if rng.Intn(2) == 0 && len(base) < n {
			s := 1 + float64(rng.Intn(5))
			w := make([]float64, f)
			for j := range v {
				w[j] = v[j] * s
			}
			base = append(base, w)
		}
	}
	return base
}

// TestDuplicateKernelInvariance: appending a copy of an existing kernel never
// changes the selected spanning subset — hence never changes the analysis
// the subset feeds (identical indices select identical measurement vectors).
func TestDuplicateKernelInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(12)
		f := 2 + rng.Intn(6)
		vectors := randomKernels(rng, n, f)
		res, err := Cluster(vectors, testThreshold)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		dup := rng.Intn(n)
		withDup := append(append([][]float64{}, vectors...), vectors[dup])
		res2, err := Cluster(withDup, testThreshold)
		if err != nil {
			t.Fatalf("trial %d (dup): %v", trial, err)
		}
		if !reflect.DeepEqual(res.Selected, res2.Selected) {
			t.Fatalf("trial %d: duplicating kernel %d changed selection: %v -> %v",
				trial, dup, res.Selected, res2.Selected)
		}
		if res2.Assign[n] != res2.Assign[dup] {
			t.Fatalf("trial %d: duplicate of %d assigned to cluster %d, original in %d",
				trial, dup, res2.Assign[n], res2.Assign[dup])
		}
	}
}

// TestPermutationInvariance: permuting kernel order yields the same cluster
// assignments (the same partition of the original kernels).
func TestPermutationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(12)
		f := 2 + rng.Intn(6)
		vectors := randomKernels(rng, n, f)
		res, err := Cluster(vectors, testThreshold)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		perm := rng.Perm(n)
		permuted := make([][]float64, n)
		for to, from := range perm {
			permuted[to] = vectors[from]
		}
		res2, err := Cluster(permuted, testThreshold)
		if err != nil {
			t.Fatalf("trial %d (perm): %v", trial, err)
		}
		// Same partition of original kernels: i and j share a cluster in one
		// run iff they share one in the other.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				same := res.Assign[perm[i]] == res.Assign[perm[j]]
				samePerm := res2.Assign[i] == res2.Assign[j]
				if same != samePerm {
					t.Fatalf("trial %d: kernels %d,%d co-clustered=%v but %v after permutation",
						trial, perm[i], perm[j], same, samePerm)
				}
			}
		}
	}
}
