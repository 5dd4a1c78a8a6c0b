// Package seed holds the integer hashing every deterministic draw in
// eventlens rests on: FNV-1a field folds over a coordinate tuple, the
// splitmix64 finalizer and the 53-bit unit draw. Noise seeds and synthetic
// event parameters (internal/machine), the fault plan and retry jitter
// (internal/fault) and ring placement (internal/shard) all fold their
// coordinates here, each from its own offset and in its own field order, so
// the draws are integer-only and identical on every target.
package seed

// Offset is the standard 64-bit FNV-1a offset basis.
const Offset = 14695981039346656037

const (
	prime  = 1099511628211
	prime2 = prime * prime % (1 << 64)
	prime4 = prime2 * prime2 % (1 << 64)
	// prime8 is prime⁸ mod 2⁶⁴. FNV-1a over a zero byte is a bare multiply
	// by prime, so folding an integer v < 256 — the byte v, then seven zero
	// bytes — is (h ^ v) * prime8.
	prime8 = prime4 * prime4 % (1 << 64)
)

// Gamma is the splitmix64 increment: the generator's state advances by
// Gamma per draw, and Mix adds it before finalizing.
const Gamma = 0x9e3779b97f4a7c15

// String folds s's bytes and a 0xff field separator into the FNV-1a hash h,
// so distinct tuples never collide by concatenation.
func String(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * prime
	}
	return (h ^ 0xff) * prime
}

// Uint folds v's eight little-endian bytes into the FNV-1a hash h, in O(1)
// for the small coordinates most hashes carry.
func Uint(h, v uint64) uint64 {
	if v < 256 {
		return (h ^ v) * prime8
	}
	for i := 0; i < 8; i++ {
		h = (h ^ uint64(byte(v>>(8*i)))) * prime
	}
	return h
}

// Mix is the splitmix64 finalizer: it spreads nearby hashes into unrelated
// 64-bit values.
func Mix(z uint64) uint64 {
	z += Gamma
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Unit maps a hash to a uniform draw in [0, 1) from its top 53 bits.
func Unit(h uint64) float64 {
	return float64(h>>11) / (1 << 53)
}
