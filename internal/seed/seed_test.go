package seed

import (
	"math"
	"testing"
)

// fold is the reference FNV-1a: every byte folded one at a time from h.
func fold(h uint64, b ...byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * prime
	}
	return h
}

func le(v uint64) []byte {
	b := make([]byte, 8)
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	return b
}

// TestUintMatchesByteFold: the O(1) step for v < 256 and the byte loop both
// agree with folding the eight little-endian bytes one at a time.
func TestUintMatchesByteFold(t *testing.T) {
	for _, h := range []uint64{0, Offset, 1469598103934665603, 1<<63 | 12345} {
		for _, v := range []uint64{0, 1, 7, 254, 255, 256, 257, 1 << 20, 1<<63 + 9, math.MaxUint64} {
			if got, want := Uint(h, v), fold(h, le(v)...); got != want {
				t.Errorf("Uint(%#x, %d) = %#x, want %#x", h, v, got, want)
			}
		}
	}
}

// TestStringSeparates: a string folds its bytes, then the 0xff separator,
// so ("ab", "") and ("a", "b") hash apart.
func TestStringSeparates(t *testing.T) {
	for _, s := range []string{"", "a", "spr-sim", "größe", "\xff\x00"} {
		if got, want := String(Offset, s), fold(Offset, append([]byte(s), 0xff)...); got != want {
			t.Errorf("String(%q) = %#x, want %#x", s, got, want)
		}
	}
	if String(String(Offset, "ab"), "") == String(String(Offset, "a"), "b") {
		t.Error("field boundaries collide")
	}
}

// TestMixLiterals pins the finalizer: the first outputs of the splitmix64
// generator seeded with 0 are Mix(0), Mix(Gamma), Mix(2·Gamma).
func TestMixLiterals(t *testing.T) {
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	for i, w := range want {
		if got := Mix(uint64(i) * Gamma); got != w {
			t.Errorf("Mix(%d·Gamma) = %#x, want %#x", i, got, w)
		}
	}
}

func TestUnitRange(t *testing.T) {
	if Unit(0) != 0 {
		t.Errorf("Unit(0) = %v", Unit(0))
	}
	if u := Unit(math.MaxUint64); u >= 1 || u != 1-1.0/(1<<53) {
		t.Errorf("Unit(max) = %v, want 1-2⁻⁵³", u)
	}
	if Unit(1<<63) != 0.5 {
		t.Errorf("Unit(2⁶³) = %v", Unit(1<<63))
	}
}
