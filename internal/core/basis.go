// Package core implements the paper's event-analysis methodology: expressing
// raw hardware-event measurements in expectation bases, filtering noise with
// the maximum pairwise RNMSE, selecting independent events with a specialized
// column-pivoted QR factorization, and defining high-level performance
// metrics by least squares with a backward-error fitness measure.
//
// The stages map one-to-one onto the paper's sections:
//
//	Section III  -> Basis, Projector, BuildXWorkers
//	Section IV   -> MaxRNMSE, FilterNoise, MedianOverThreads
//	Section V    -> SpecializedQRCP (Algorithm 2), RoundToGrid, Score
//	Section VI   -> DefineMetric, BackwardError, Rounded
//
// Pipeline ties the stages together.
package core

import (
	"fmt"

	"github.com/perfmetrics/eventlens/internal/mat"
)

// Basis is an expectation basis (Section III-B): a matrix whose columns are
// the expectation vectors of *ideal* events over a benchmark's points. The
// ideal events form the conceptual coordinate system ("ideal hardware
// dimensions") in which raw events and metric signatures are expressed.
type Basis struct {
	// Names labels the ideal events (the basis columns), e.g.
	// "DSCAL", "D256_FMA", or "CE".
	Names []string
	// PointNames labels the benchmark points (the rows), e.g. one kernel
	// loop or one cache sweep configuration.
	PointNames []string
	// E is the len(PointNames) x len(Names) expectation matrix.
	E *mat.Dense
}

// NewBasis validates and constructs a Basis.
func NewBasis(names, pointNames []string, e *mat.Dense) (*Basis, error) {
	r, c := e.Dims()
	if r != len(pointNames) {
		return nil, fmt.Errorf("core: basis has %d rows but %d point names", r, len(pointNames))
	}
	if c != len(names) {
		return nil, fmt.Errorf("core: basis has %d columns but %d names", c, len(names))
	}
	if r < c {
		return nil, fmt.Errorf("core: basis must have at least as many points (%d) as ideal events (%d)", r, c)
	}
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		if seen[n] {
			return nil, fmt.Errorf("core: duplicate ideal event %q", n)
		}
		seen[n] = true
	}
	return &Basis{Names: names, PointNames: pointNames, E: e}, nil
}

// Dim returns the number of ideal events (basis dimensions).
func (b *Basis) Dim() int { return len(b.Names) }

// Points returns the number of benchmark points.
func (b *Basis) Points() int { return len(b.PointNames) }

// Expand maps a coefficient vector in basis coordinates to point space:
// E * coeffs. This is how a signature becomes a per-point expectation series
// (used when plotting a metric against raw measurements, Figure 3).
func (b *Basis) Expand(coeffs []float64) ([]float64, error) {
	if len(coeffs) != b.Dim() {
		return nil, fmt.Errorf("core: coefficient length %d, basis dimension %d", len(coeffs), b.Dim())
	}
	return mat.MatVec(b.E, coeffs), nil
}

// SelectPoints returns the basis restricted to the named points (rows), in
// the given order — the analysis-side counterpart of spanning-kernel
// collection (cat.RunConfig.MinimalKernels): a measurement set covering only
// a subset of a benchmark's points analyzes against the matching basis rows.
// Unknown or duplicate names error, as does a reduction that leaves fewer
// points than basis dimensions (NewBasis enforces rows >= columns).
func (b *Basis) SelectPoints(pointNames []string) (*Basis, error) {
	index := make(map[string]int, len(b.PointNames))
	for i, n := range b.PointNames {
		index[n] = i
	}
	e := mat.NewDense(len(pointNames), b.Dim())
	out := make([]string, len(pointNames))
	seen := make(map[string]bool, len(pointNames))
	for i, n := range pointNames {
		row, ok := index[n]
		if !ok {
			return nil, fmt.Errorf("core: basis has no point %q", n)
		}
		if seen[n] {
			return nil, fmt.Errorf("core: duplicate point %q in selection", n)
		}
		seen[n] = true
		for j := 0; j < b.Dim(); j++ {
			e.Set(i, j, b.E.At(row, j))
		}
		out[i] = n
	}
	return NewBasis(b.Names, out, e)
}

// CheckFullRank verifies the expectation vectors are linearly independent —
// a malformed basis would make every later stage meaningless.
func (b *Basis) CheckFullRank() error {
	if r := mat.QRCP(b.E, 0).Rank; r != b.Dim() {
		return fmt.Errorf("core: basis rank %d < dimension %d", r, b.Dim())
	}
	return nil
}
