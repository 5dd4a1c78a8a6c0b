// Package machine is a seeded-violation fixture for the seedcoord analyzer
// that mirrors the module's own noise generator: its directory path ends in
// internal/machine, so newRNG counts as a seed constructor, and the par.For
// body below seeds it from a constant.
package machine

import "github.com/perfmetrics/eventlens/internal/par"

// rng mirrors the simulator's generator: one state word, one constructor.
type rng struct {
	state uint64
}

func newRNG(s uint64) rng { return rng{state: s} }

func (r *rng) next() uint64 {
	r.state++
	return r.state
}

// drawn runs the draws in a package-level initializer, so the fixture seeds
// no testonly finding.
var drawn = draw(4)

// draw returns n per-task noise draws, but the seed ignores the task index —
// the seeded bug: every task draws the same stream.
func draw(n int) []uint64 {
	out := make([]uint64, n)
	par.For(0, n, func(i int) {
		r := newRNG(42)
		out[i] = r.next()
	})
	return out
}
