package machine

import (
	"math/rand"
	"testing"
)

// hashSeed is the reference noise seed: FNV-1a folded byte by byte over a
// tuple of strings (each followed by a 0xff separator) and uint64s (eight
// little-endian bytes each). The production seed, seedPrefix then
// valueSeed, must agree with it on every coordinate.
func hashSeed(parts ...interface{}) uint64 {
	const (
		offset = 1469598103934665603
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime
	}
	for _, p := range parts {
		switch v := p.(type) {
		case string:
			for i := 0; i < len(v); i++ {
				mix(v[i])
			}
			mix(0xff) // separator
		case uint64:
			for i := 0; i < 8; i++ {
				mix(byte(v >> (8 * i)))
			}
		default:
			panic("machine: unsupported seed part")
		}
	}
	return h
}

func referenceSeed(platform, event string, group, point, rep, thread int) uint64 {
	return hashSeed(platform, event, uint64(group), uint64(point), uint64(rep), uint64(thread))
}

func productionSeed(platform, event string, group, point, rep, thread int) uint64 {
	return valueSeed(seedPrefix(platform, event, group), point, rep, thread)
}

// TestSeedMatchesReference: the prefix-and-fold seed equals the byte-by-byte
// reference over random coordinates — small ones (the O(1) fold), ones at
// and above 256 on every coordinate (the byte loop), and names with
// multi-byte UTF-8.
func TestSeedMatchesReference(t *testing.T) {
	names := []string{"", "spr-sim", "mi250x-sim", "FP_ARITH_INST_RETIRED:SCALAR_DOUBLE",
		"größe", "évènement:µ", "事件", "\xff\x00"}
	rng := rand.New(rand.NewSource(1))
	coord := func() int {
		switch rng.Intn(4) {
		case 0:
			return rng.Intn(256)
		case 1:
			return 255 + rng.Intn(3) // 255, 256, 257
		case 2:
			return rng.Intn(1 << 20)
		default:
			return int(rng.Int63())
		}
	}
	for i := 0; i < 20000; i++ {
		platform := names[rng.Intn(len(names))]
		event := names[rng.Intn(len(names))]
		g, pt, rep, th := coord(), coord(), coord(), coord()
		if got, want := productionSeed(platform, event, g, pt, rep, th), referenceSeed(platform, event, g, pt, rep, th); got != want {
			t.Fatalf("seed(%q, %q, %d, %d, %d, %d) = %#x, reference %#x", platform, event, g, pt, rep, th, got, want)
		}
	}
	for _, name := range names {
		if got, want := nameHash(name), hashSeed(name); got != want {
			t.Fatalf("nameHash(%q) = %#x, reference %#x", name, got, want)
		}
	}
}

// TestSeedLiterals pins seeds the committed goldens depend on: a change to
// the offset, the prime, the separator or the byte order fails here first.
func TestSeedLiterals(t *testing.T) {
	cases := []struct {
		platform, event           string
		group, point, rep, thread int
		want                      uint64
	}{
		{"spr-sim", "FP_ARITH_INST_RETIRED:SCALAR_DOUBLE", 0, 0, 0, 0, 0x689ef056e5c64650},
		{"mi250x-sim", "SQ_INSTS_VALU_ADD_F16", 3, 44, 4, 0, 0x475444ca4abffa7c},
		{"spr-sim", "MEM_LOAD_RETIRED:L1_HIT", 289, 256, 1 << 40, 3, 0x5eb4eb863d6c6948},
		{"größe", "évènement:µ", 1, 2, 3, 4, 0xd17d880e840e86df},
	}
	for _, c := range cases {
		if got := productionSeed(c.platform, c.event, c.group, c.point, c.rep, c.thread); got != c.want {
			t.Errorf("seed(%q, %q, %d, %d, %d, %d) = %#x, want %#x", c.platform, c.event, c.group, c.point, c.rep, c.thread, got, c.want)
		}
	}
	if got := nameHash("CYCLES"); got != 0x2203aef56cc52615 {
		t.Errorf("nameHash(CYCLES) = %#x", got)
	}
}
