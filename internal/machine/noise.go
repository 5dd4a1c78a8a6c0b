package machine

import (
	"math"

	"github.com/perfmetrics/eventlens/internal/mat"
	"github.com/perfmetrics/eventlens/internal/seed"
)

// rng is a splitmix64 generator: tiny, fast, and deterministic from a seed,
// which is all the noise model needs.
type rng struct {
	state uint64
}

// newRNG returns the generator whose draws a seed fixes.
func newRNG(s uint64) rng { return rng{state: s} }

// next returns the next 64 pseudo-random bits: the state, finalized, before
// it advances by the splitmix64 increment.
func (r *rng) next() uint64 {
	z := seed.Mix(r.state)
	r.state += seed.Gamma
	return z
}

// uniform returns a float64 in (0, 1).
func (r *rng) uniform() float64 {
	// 53 random mantissa bits; add 1 ulp to stay strictly above zero.
	return (float64(r.next()>>11) + 0.5) / (1 << 53)
}

// norm returns a standard normal variate via the Box-Muller transform.
func (r *rng) norm() float64 {
	u1 := r.uniform()
	u2 := r.uniform()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// noisy perturbs an ideal count with an event's relative and absolute noise
// sigmas, drawing from the value's seed.
func noisy(ideal, rel, abs float64, s uint64) float64 {
	r := newRNG(s)
	v := ideal
	if !mat.IsZero(rel) {
		v *= 1 + rel*r.norm()
	}
	if !mat.IsZero(abs) {
		v += abs * r.norm()
	}
	if v < 0 {
		v = 0 // counters never go negative
	}
	return v
}

// seedOffset starts every noise seed and synthetic-event hash. It is not
// the standard 64-bit FNV-1a offset basis (seed.Offset, one digit longer),
// but every noise draw and synthetic event — and so every golden — depends
// on it.
const seedOffset = 1469598103934665603

// seedPrefix hashes the (platform, event, group) head of a noise seed: the
// part every value of one event's group read shares.
func seedPrefix(platform, event string, group int) uint64 {
	return seed.Uint(seed.String(seed.String(seedOffset, platform), event), uint64(group))
}

// valueSeed completes a noise seed from its prefix: the seed of one value
// is FNV-1a over (platform, event, group, point, rep, thread), each string
// followed by a 0xff separator and each integer as eight little-endian
// bytes.
func valueSeed(prefix uint64, point, rep, thread int) uint64 {
	return seed.Uint(seed.Uint(seed.Uint(prefix, uint64(point)), uint64(rep)), uint64(thread))
}

// nameHash returns a deterministic 64-bit hash of an event name, used to
// derive stable per-event synthetic parameters (noise magnitudes, filler
// response coefficients).
func nameHash(name string) uint64 {
	return seed.String(seedOffset, name)
}

// spreadNoise maps a hash to a noise sigma log-uniformly distributed in
// [lo, hi] — this is what produces the sloped noisy tail in the paper's
// Figure 2 variability plots.
func spreadNoise(h uint64, lo, hi float64) float64 {
	return lo * math.Pow(hi/lo, seed.Unit(h))
}
