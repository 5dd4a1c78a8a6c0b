package fault

import (
	"math"
	"time"

	"github.com/perfmetrics/eventlens/internal/seed"
)

// Plan is a complete, replayable fault schedule: every decision it makes is
// a pure function of (spec seed, coordinate, attempt), so any number of
// queries in any order — serial, parallel, repeated — observe the same
// faults. A nil *Plan injects nothing, so injection points need no guards
// beyond a nil check.
type Plan struct {
	spec Spec
}

// NewPlan builds a plan from a spec (zero-valued fields take defaults).
func NewPlan(spec Spec) *Plan {
	return &Plan{spec: spec.withDefaults()}
}

// Retries returns the measurement-layer re-attempt budget: how many times a
// failed coordinate is re-measured before its events are dropped.
func (p *Plan) Retries() int { return p.spec.Retries }

// At decides which fault, if any, fires at a coordinate on a given attempt.
// Whether a kind fires at a coordinate is attempt-independent — a fault is a
// property of the coordinate — but retryable kinds persist only for the
// coordinate's depth (in [1, spec.Depth]) attempts and then clear, which is
// what makes "retry budget >= depth" a recovery guarantee. Panic and Corrupt
// fire on every attempt: a corrupt counter stays corrupt.
func (p *Plan) At(c Coord, attempt int) Kind {
	for _, k := range siteKinds[c.Site] {
		rate := p.spec.Rate(k)
		if rate <= 0 {
			continue
		}
		if p.unit(c, "fire/"+k.String(), 0) >= rate {
			continue
		}
		if k.Retryable() && attempt >= p.depth(c, k) {
			continue // recovered
		}
		return k
	}
	return None
}

// depth is the number of consecutive attempts a retryable fault persists at
// this coordinate: 1..spec.Depth, drawn deterministically per coordinate.
func (p *Plan) depth(c Coord, k Kind) int {
	if p.spec.Depth <= 1 {
		return 1
	}
	return 1 + int(p.hash(c, "depth/"+k.String(), 0)%uint64(p.spec.Depth))
}

// corruptCellRate is the conditional probability that any single value of a
// corrupt group read is mutated (the rest of the group reads clean, like a
// real glitched counter).
const corruptCellRate = 0.25

// CorruptValue mutates one measured value of a group read that At decided is
// Corrupt. The mutation — NaN, ±Inf, a wild outlier, or none — is drawn
// deterministically per (coordinate, event, point) cell. It returns the
// possibly-mutated value and whether a mutation was applied.
func (p *Plan) CorruptValue(c Coord, event string, point int, v float64) (float64, bool) {
	if p.unit(c, "cell/"+event, uint64(point)) >= corruptCellRate {
		return v, false
	}
	switch p.hash(c, "mut/"+event, uint64(point)) % 4 {
	case 0:
		return math.NaN(), true
	case 1:
		return math.Inf(1), true
	case 2:
		return math.Inf(-1), true
	default:
		return v*1e6 + 1e6, true
	}
}

// Delay returns the deterministic injected latency for Slow and HTTPTimeout
// faults at a coordinate: between 0.5ms and 2ms, small enough for test
// suites, large enough to exercise timeout paths.
func (p *Plan) Delay(c Coord) time.Duration {
	return time.Duration(1+p.hash(c, "delay", 0)%4) * 500 * time.Microsecond
}

// unit returns a deterministic uniform draw in [0, 1) for a labeled
// coordinate stream.
func (p *Plan) unit(c Coord, label string, extra uint64) float64 {
	return seed.Unit(p.hash(c, label, extra))
}

// hash folds (seed, coordinate, label, extra) into 64 well-mixed bits:
// FNV-1a over the fields, finalized with a splitmix64 mix so that nearby
// coordinates produce unrelated draws.
func (p *Plan) hash(c Coord, label string, extra uint64) uint64 {
	h := seed.Uint(seed.Offset, p.spec.Seed)
	h = seed.String(seed.String(seed.String(h, string(c.Site)), c.Name), label)
	h = seed.Uint(seed.Uint(seed.Uint(h, uint64(int64(c.Group))), uint64(int64(c.Rep))), uint64(int64(c.Thread)))
	return seed.Mix(seed.Uint(h, extra))
}
