package cat

import (
	"fmt"
	"sort"

	"github.com/perfmetrics/eventlens/internal/core"
	"github.com/perfmetrics/eventlens/internal/machine"
	"github.com/perfmetrics/eventlens/internal/mat"
	"github.com/perfmetrics/eventlens/internal/similarity"
)

// MinimalKernelThreshold is the cosine similarity at or above which two
// benchmark points count as redundant under RunConfig.MinimalKernels: their
// ideal catalog responses point the same way, so measuring both adds noise
// samples but no directional information to the analysis. The value is
// deliberately tight — spanning selection must preserve the metric-definition
// report within the paper's composability tolerance, not merely approximate
// it (see TestMinimalKernelsPreservesAnalysis).
const MinimalKernelThreshold = 0.9999

// SpanningPoints clusters benchmark points by the cosine similarity of their
// ideal (noise-free) responses across the platform's full event catalog and
// returns the indices of the minimal spanning subset, ascending. The vectors
// are ideal responses, not measurements, so the selection is a pure function
// of (platform, points, basis) — independent of Workers, reps, and noise
// draws, which keeps MinimalKernels runs inside the determinism contract.
//
// Similarity is measured in raw-event space, but the analysis solves in the
// expectation basis, so clustering alone can discard rows the basis needs
// (two kernels whose raw responses are proportional may still probe distinct
// ideal dimensions). The selection is therefore rank-repaired against the
// basis: dropped points are re-added, ascending, until the selected rows of
// the expectation matrix reach full column rank.
func SpanningPoints(p *machine.Platform, points []machine.Stats, basis *core.Basis) ([]int, error) {
	if basis.Points() != len(points) {
		return nil, fmt.Errorf("cat: spanning points: basis covers %d points, ground truth has %d", basis.Points(), len(points))
	}
	events := p.Events
	vectors := make([][]float64, len(points))
	for i, stats := range points {
		v := make([]float64, len(events))
		for j, e := range events {
			v[j] = e.Count(stats)
		}
		vectors[i] = v
	}
	res, err := similarity.Cluster(vectors, MinimalKernelThreshold)
	if err != nil {
		return nil, fmt.Errorf("cat: spanning points: %w", err)
	}
	return repairRank(basis, res.Selected)
}

// repairRank re-adds dropped points, in ascending index order, until the
// selected rows of the expectation matrix span every ideal dimension. Each
// candidate is kept only if it raises the rank, so the augmentation is both
// minimal (greedy) and deterministic. Errors if even the full point set is
// rank-deficient — that is a malformed basis, not a selection problem.
func repairRank(basis *core.Basis, sel []int) ([]int, error) {
	dim := basis.Dim()
	rank := subsetRank(basis, sel)
	if rank == dim {
		return sel, nil
	}
	in := make(map[int]bool, len(sel))
	for _, i := range sel {
		in[i] = true
	}
	out := append([]int(nil), sel...)
	for i := 0; i < basis.Points() && rank < dim; i++ {
		if in[i] {
			continue
		}
		trial := append(append([]int(nil), out...), i)
		if r := subsetRank(basis, trial); r > rank {
			out, rank = trial, r
			in[i] = true
		}
	}
	if rank < dim {
		return nil, fmt.Errorf("cat: spanning points: basis rank %d < dimension %d even over all points", rank, dim)
	}
	sort.Ints(out)
	return out, nil
}

// subsetRank is the column rank of the chosen rows of the expectation matrix.
func subsetRank(basis *core.Basis, rows []int) int {
	e := mat.NewDense(len(rows), basis.Dim())
	for i, r := range rows {
		for j := 0; j < basis.Dim(); j++ {
			e.Set(i, j, basis.E.At(r, j))
		}
	}
	return mat.QRCP(e, 0).Rank
}

// minimalSubset applies SpanningPoints to a benchmark's point names and
// per-thread ground truth, returning the reduced names and points. Selection
// is computed from thread 0 — per-thread ground truth differs only in noise
// seeds and private-buffer placement, never in which direction a point
// responds — so every thread keeps the same indices and the measurement set
// stays rectangular.
func minimalSubset(p *machine.Platform, basis *core.Basis, names []string, perThread [][]machine.Stats) ([]string, [][]machine.Stats, error) {
	sel, err := SpanningPoints(p, perThread[0], basis)
	if err != nil {
		return nil, nil, err
	}
	outNames := make([]string, len(sel))
	for i, idx := range sel {
		outNames[i] = names[idx]
	}
	outPoints := make([][]machine.Stats, len(perThread))
	for t, pts := range perThread {
		sub := make([]machine.Stats, len(sel))
		for i, idx := range sel {
			sub[i] = pts[idx]
		}
		outPoints[t] = sub
	}
	return outNames, outPoints, nil
}
