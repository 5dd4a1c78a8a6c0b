package machine

import (
	"math"

	"github.com/perfmetrics/eventlens/internal/mat"
)

// rng is a splitmix64 generator: tiny, fast, and deterministic from a seed,
// which is all the noise model needs.
type rng struct {
	state uint64
}

// next returns the next 64 pseudo-random bits.
func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
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
func noisy(ideal, rel, abs float64, seed uint64) float64 {
	r := rng{state: seed}
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

// Seeds are FNV-1a over a coordinate tuple: each string's bytes followed by
// a 0xff separator, then each integer's eight little-endian bytes.
const (
	// seedOffset starts every hash. It is not the standard 64-bit FNV-1a
	// offset basis (14695981039346656037, one digit longer), but every noise
	// draw and synthetic event — and so every golden — depends on it.
	seedOffset = 1469598103934665603
	seedPrime  = 1099511628211
	seedPrime2 = seedPrime * seedPrime % (1 << 64)
	seedPrime4 = seedPrime2 * seedPrime2 % (1 << 64)
	// seedPrime8 is seedPrime⁸ mod 2⁶⁴. FNV-1a over a zero byte is a bare
	// multiply by seedPrime, so folding an integer v < 256 — the byte v,
	// then seven zero bytes — is (h ^ v) * seedPrime8.
	seedPrime8 = seedPrime4 * seedPrime4 % (1 << 64)
)

// hashString folds s's bytes and a 0xff separator into the hash h.
func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * seedPrime
	}
	return (h ^ 0xff) * seedPrime
}

// hashUint folds v's eight little-endian bytes into the hash h, in O(1)
// for the small coordinates noise seeds carry.
func hashUint(h, v uint64) uint64 {
	if v < 256 {
		return (h ^ v) * seedPrime8
	}
	for i := 0; i < 8; i++ {
		h = (h ^ uint64(byte(v>>(8*i)))) * seedPrime
	}
	return h
}

// seedPrefix hashes the (platform, event, group) head of a noise seed: the
// part every value of one event's group read shares.
func seedPrefix(platform, event string, group int) uint64 {
	return hashUint(hashString(hashString(seedOffset, platform), event), uint64(group))
}

// valueSeed completes a noise seed from its prefix: the seed of one value
// is FNV-1a over (platform, event, group, point, rep, thread).
func valueSeed(prefix uint64, point, rep, thread int) uint64 {
	return hashUint(hashUint(hashUint(prefix, uint64(point)), uint64(rep)), uint64(thread))
}

// nameHash returns a deterministic 64-bit hash of an event name, used to
// derive stable per-event synthetic parameters (noise magnitudes, filler
// response coefficients).
func nameHash(name string) uint64 {
	return hashString(seedOffset, name)
}

// spreadNoise maps a hash to a noise sigma log-uniformly distributed in
// [lo, hi] — this is what produces the sloped noisy tail in the paper's
// Figure 2 variability plots.
func spreadNoise(h uint64, lo, hi float64) float64 {
	u := float64(h>>11) / (1 << 53)
	return lo * math.Pow(hi/lo, u)
}
