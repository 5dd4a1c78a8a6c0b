package core

import (
	"fmt"

	"github.com/perfmetrics/eventlens/internal/mat"
	"github.com/perfmetrics/eventlens/internal/par"
)

// Projection is one raw event expressed in expectation coordinates
// (Section III-B): the least-squares solution of E * x = m.
type Projection struct {
	Event string
	// X is the representation of the measurement vector in the basis.
	X []float64
	// RelResidual is ||E*x - m|| / ||m||: how much of the measurement the
	// basis cannot explain.
	RelResidual float64
}

// Projector projects measurement vectors onto a basis using a Householder
// QR factorization of E computed once — projecting an n-event catalog costs
// one factorization plus n cheap triangular solves instead of n
// factorizations. The factorization is read-only after construction, so one
// Projector may serve concurrent Project calls.
type Projector struct {
	basis *Basis
	qr    *mat.QR
}

// NewProjector factorizes the basis. The basis must be full rank (checked
// via the factor's condition estimate).
func NewProjector(b *Basis) (*Projector, error) {
	qr := mat.Factorize(b.E)
	if qr.RCond() < 1e-12 {
		return nil, fmt.Errorf("core: basis is numerically rank deficient (rcond %.1e)", qr.RCond())
	}
	return &Projector{basis: b, qr: qr}, nil
}

// Project expresses one measurement vector in the basis. It is safe to call
// concurrently.
func (p *Projector) Project(event string, m []float64) (*Projection, error) {
	return p.projectScratch(event, m, make([]float64, p.basis.Points()))
}

// projectScratch is Project with a caller-owned scratch buffer (length >=
// basis.Points()) for the triangular solve, so a worker projecting many
// events allocates only each event's solution vector. Each concurrent caller
// must own its scratch.
func (p *Projector) projectScratch(event string, m []float64, scratch []float64) (*Projection, error) {
	if len(m) != p.basis.Points() {
		return nil, fmt.Errorf("core: event %q vector has %d points, basis has %d",
			event, len(m), p.basis.Points())
	}
	x, err := p.qr.SolveScratch(m, scratch)
	if err != nil {
		return nil, fmt.Errorf("core: projecting %q: %w", event, err)
	}
	res := mat.ResidualNorm2(p.basis.E, x, m)
	nrm := mat.Norm2(m)
	rel := 0.0
	if nrm > 0 {
		rel = res / nrm
	}
	return &Projection{Event: event, X: x, RelResidual: rel}, nil
}

// ProjectionReport is the outcome of the basis-projection stage. It keeps
// one copy of each representation, as a column of X; a cached analysis
// keeps the report for the life of the cache entry. A caller that needs an
// event's residual projects it again with a Projector.
type ProjectionReport struct {
	// Order lists surviving events in measurement order: column j of X is
	// the representation of Order[j].
	Order []string
	// Dropped lists events whose relative residual exceeded the tolerance —
	// events that cannot be sufficiently represented in the expectation
	// space and are disregarded from further analysis.
	Dropped []string
	// X is the basis-dimension x len(Order) matrix whose columns are the
	// representations, the input to the specialized QRCP.
	X *mat.Dense
}

// BuildXWorkers projects every kept event onto the basis and assembles the
// X matrix from those that fit within relTol, on the given worker count (<= 0
// means GOMAXPROCS, 1 is serial). The basis is factorized once; the read-only
// factor is shared across workers, each of which owns one scratch buffer and
// projects a contiguous block of events. The report is assembled in
// measurement order afterwards, so the result is byte-identical for every
// worker count; its Order and Dropped are sized exactly.
func BuildXWorkers(b *Basis, kept map[string][]float64, order []string, relTol float64, workers int) (*ProjectionReport, error) {
	projector, err := NewProjector(b)
	if err != nil {
		return nil, err
	}
	type outcome struct {
		p   *Projection
		err error
	}
	results := make([]outcome, len(order))
	w := par.Workers(workers)
	if w > len(order) {
		w = len(order)
	}
	if w < 1 {
		w = 1
	}
	chunk := (len(order) + w - 1) / w
	par.For(w, w, func(ci int) {
		lo, hi := ci*chunk, (ci+1)*chunk
		if hi > len(order) {
			hi = len(order)
		}
		// One scratch per worker: the per-event solve then allocates only
		// its solution vector.
		scratch := make([]float64, b.Points())
		for i := lo; i < hi; i++ {
			event := order[i]
			m, ok := kept[event]
			if !ok {
				results[i].err = fmt.Errorf("core: event %q in order but not in kept set", event)
				continue
			}
			results[i].p, results[i].err = projector.projectScratch(event, m, scratch)
		}
	})
	fits := 0
	for i := range order {
		if err := results[i].err; err != nil {
			return nil, err
		}
		if !(results[i].p.RelResidual > relTol) {
			fits++
		}
	}
	report := &ProjectionReport{}
	if fits > 0 {
		report.Order = make([]string, 0, fits)
	}
	if fits < len(order) {
		report.Dropped = make([]string, 0, len(order)-fits)
	}
	cols := make([][]float64, 0, fits)
	for i, event := range order {
		p := results[i].p
		if p.RelResidual > relTol {
			report.Dropped = append(report.Dropped, event)
			continue
		}
		report.Order = append(report.Order, event)
		cols = append(cols, p.X)
	}
	report.X = mat.FromColumns(cols)
	if len(cols) > 0 && report.X.Rows() != b.Dim() {
		return nil, fmt.Errorf("core: internal error: X has %d rows, basis dim %d", report.X.Rows(), b.Dim())
	}
	return report, nil
}
