// Package similarity clusters computational kernels by the similarity of
// their measurement vectors and selects a minimal spanning subset — the
// redundancy analysis of "On Similarity of Computational Kernels in our Codes
// and Proxies" and PerfSpect's similarity-analyzer, applied to the CAT
// benchmark points so threshold sweeps can collect only kernels that add
// information (DESIGN.md §14).
//
// The clustering is pairwise cosine over column-rescaled vectors, so that two
// exact invariants hold, proven by the property tests:
//
//   - permutation invariance: reordering the kernels yields the same
//     partition (as sets of kernels), bit for bit;
//   - duplicate stability: appending a copy of an existing kernel never
//     changes which kernels are selected.
//
// Both hold because every decision depends only on pairwise dot products of
// individual rows (evaluated in feature order) and on per-column maxima,
// neither of which is affected by row order or by duplicating a row.
package similarity

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/perfmetrics/eventlens/internal/mat"
)

// Errors returned by Cluster for malformed inputs. All inputs either
// classify or fail with one of these; Cluster never panics (fuzzed).
var (
	// ErrNoKernels is returned for an empty input.
	ErrNoKernels = errors.New("similarity: no kernel vectors")
	// ErrEmptyVector is returned when kernels have zero features.
	ErrEmptyVector = errors.New("similarity: kernel vectors have no features")
	// ErrRagged is returned when kernel vectors differ in length.
	ErrRagged = errors.New("similarity: ragged kernel vectors")
	// ErrNonFinite is returned when any entry is NaN or ±Inf.
	ErrNonFinite = errors.New("similarity: non-finite value")
	// ErrThreshold is returned for a threshold outside (0, 1].
	ErrThreshold = errors.New("similarity: threshold must be in (0, 1]")
)

// Result is a deterministic partition of the kernels.
type Result struct {
	// Clusters partitions the kernel indices: members ascending within each
	// cluster, clusters ordered by their smallest member.
	Clusters [][]int
	// Assign maps each kernel index to its cluster's position in Clusters.
	Assign []int
	// Selected is the minimal spanning subset: the smallest kernel index of
	// each cluster, ascending. Taking the smallest index (rather than, say,
	// the cluster leader) is what makes appending a duplicate kernel a
	// no-op for selection.
	Selected []int
}

// Cluster partitions kernel measurement vectors into cosine-similarity
// clusters and selects one representative per cluster. Two kernels share a
// cluster when their cosine similarity reaches threshold, which must lie in
// (0, 1]: a threshold above 1 is rejected rather than clamped because no
// cosine could reach it, and duplicate stability needs a copy of a kernel
// (cos = 1) to join its original's cluster. All decisions are deterministic
// functions of the multiset of rows; see the package comment for the
// invariants.
func Cluster(vectors [][]float64, threshold float64) (*Result, error) {
	if threshold <= 0 || threshold > 1 || math.IsNaN(threshold) {
		return nil, fmt.Errorf("%w, got %v", ErrThreshold, threshold)
	}
	n := len(vectors)
	if n == 0 {
		return nil, ErrNoKernels
	}
	f := len(vectors[0])
	if f == 0 {
		return nil, ErrEmptyVector
	}
	for i, v := range vectors {
		if len(v) != f {
			return nil, fmt.Errorf("%w: kernel %d has %d features, kernel 0 has %d", ErrRagged, i, len(v), f)
		}
		for j, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("%w at kernel %d feature %d: %v", ErrNonFinite, i, j, x)
			}
		}
	}

	rows := rescaleColumns(vectors)
	order := canonicalOrder(rows)

	// Leader clustering in canonical order: each kernel joins the first
	// cluster whose leader (its canonically-first member) is within the
	// threshold, else founds a new cluster. Canonical order makes the walk —
	// and therefore the partition — independent of input order.
	var leaders []int   // leader kernel index per cluster, creation order
	var members [][]int // kernel indices per cluster, creation order
	assign := make([]int, n)
	for _, i := range order {
		placed := -1
		for c, leader := range leaders {
			if mat.Cosine(rows[i], rows[leader]) >= threshold {
				placed = c
				break
			}
		}
		if placed < 0 {
			placed = len(leaders)
			leaders = append(leaders, i)
			members = append(members, nil)
		}
		members[placed] = append(members[placed], i)
		assign[i] = placed
	}

	res := &Result{Assign: assign}
	for _, m := range members {
		sort.Ints(m)
	}
	sort.Slice(members, func(a, b int) bool { return members[a][0] < members[b][0] })
	renumber := make([]int, len(members))
	for _, m := range members {
		res.Clusters = append(res.Clusters, m)
		res.Selected = append(res.Selected, m[0])
	}
	// Remap Assign from creation order to the min-member order Clusters uses.
	for c, m := range res.Clusters {
		renumber[assign[m[0]]] = c
	}
	for i := range assign {
		assign[i] = renumber[assign[i]]
	}
	return res, nil
}

// rescaleColumns divides every column by its maximum absolute value, mapping
// each feature into [-1, 1] so no single high-magnitude event dominates the
// cosine. The scale is a per-column maximum — computed with comparisons, no
// accumulation — so it is exactly invariant under row permutation and under
// duplicating a row.
func rescaleColumns(vectors [][]float64) [][]float64 {
	n, f := len(vectors), len(vectors[0])
	scale := make([]float64, f)
	for j := 0; j < f; j++ {
		maxAbs := 0.0
		for i := 0; i < n; i++ {
			if a := math.Abs(vectors[i][j]); a > maxAbs {
				maxAbs = a
			}
		}
		if mat.IsZero(maxAbs) {
			scale[j] = 0 // all-zero column stays zero
		} else {
			scale[j] = 1 / maxAbs
		}
	}
	rows := make([][]float64, n)
	for i, v := range vectors {
		r := make([]float64, f)
		for j, x := range v {
			r[j] = x * scale[j]
		}
		rows[i] = r
	}
	return rows
}

// canonicalOrder returns kernel indices sorted by their rescaled rows
// lexicographically, ties broken by original index. Ties imply bit-equal
// rows (rescaling is a per-column scale, so distinct inputs stay distinct),
// which is exactly the duplicate case the index tie-break keeps stable: an
// appended copy sorts after its original and can never displace it as a
// cluster leader.
func canonicalOrder(rows [][]float64) []int {
	order := make([]int, len(rows))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ra, rb := rows[order[a]], rows[order[b]]
		for j := range ra {
			if ra[j] < rb[j] {
				return true
			}
			if ra[j] > rb[j] {
				return false
			}
		}
		return order[a] < order[b]
	})
	return order
}
