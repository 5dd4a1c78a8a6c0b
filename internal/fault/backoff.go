package fault

import (
	"time"

	"github.com/perfmetrics/eventlens/internal/seed"
)

// BackoffDelay computes the delay before retry number attempt (0-based):
// exponential growth base<<attempt capped at max, scaled by a deterministic
// jitter factor in [0.5, 1.5) drawn from (s, attempt). Seeded jitter
// keeps retry schedules replayable — two runs of the same chaos seed back
// off identically — while still de-synchronizing concurrent retriers whose
// seeds differ.
func BackoffDelay(base, max time.Duration, s uint64, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	if max < base {
		max = base
	}
	d := base
	// Shift in steps so large attempts saturate at max instead of
	// overflowing the duration.
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	h := seed.Mix(seed.Uint(seed.String(seed.Uint(seed.Offset, s), "backoff"), uint64(int64(attempt))))
	jitter := 0.5 + seed.Unit(h) // [0.5, 1.5)
	scaled := time.Duration(float64(d) * jitter)
	if scaled > max {
		scaled = max
	}
	return scaled
}

// SeedFor folds strings into a backoff seed, so call sites can key retry
// jitter by a stable identity (a job ID, a URL) without hand-rolling hashes.
func SeedFor(parts ...string) uint64 {
	h := uint64(0)
	for _, p := range parts {
		h = seed.String(seed.Uint(seed.Offset, h), p)
	}
	return seed.Mix(h)
}
