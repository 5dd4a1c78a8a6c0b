package cachesim

import (
	"math/rand"
	"testing"
)

// checkTraversal fails unless traversal's keys are the walk's addresses
// (BuildChain: Sattolo's swaps and the walk from element 0) shifted right by
// shift.
func checkTraversal(t testing.TB, cfg ChaseConfig, shift uint) {
	t.Helper()
	chain, err := BuildChain(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]uint32, cfg.Elements)
	traversal(cfg, shift, got, make([]uint32, cfg.Elements))
	for i, addr := range chain {
		if want := uint32(addr >> shift); got[i] != want {
			t.Fatalf("%+v shift %d: traversal differs from the walk first at position %d: key %d, walk %d", cfg, shift, i, got[i], want)
		}
	}
}

// TestTraversalMatchesWalk pins analysis 2's identity: the keys scattered
// off Sattolo's insertion tree are the walk of the cycle's, as element
// indices for every n in 2–600 at several seeds, as keys at strides below,
// at and above the key size from unaligned bases, and as the VPNs of every
// chase of the shipped sweep at four threads with the chain seeds cat.DCache
// uses.
func TestTraversalMatchesWalk(t *testing.T) {
	for n := 2; n <= 600; n++ {
		for _, seed := range []int64{1, -3, 7919, 1 << 40} {
			checkTraversal(t, ChaseConfig{Elements: n, StrideBytes: 1, Seed: seed}, 0)
		}
	}
	for _, stride := range []int{24, 64, 100, 4096, 5000} {
		for _, base := range []uint64{0, 4096 + 192, 1<<20 + 7} {
			checkTraversal(t, ChaseConfig{Elements: 3001, StrideBytes: stride, Base: base, Seed: 5}, 6)
		}
	}
	chases := 0
	for thread := int64(0); thread < 4; thread++ {
		for i, p := range BuildSweep(SPRLikeConfig(), []int{64, 128}) {
			checkTraversal(t, ChaseConfig{Elements: p.Elements, StrideBytes: p.StrideBytes, Seed: 1 + thread*7919 + int64(i)}, 12)
			chases++
		}
	}
	if chases != 64 {
		t.Fatalf("shipped sweep has %d chases at four threads, want 64", chases)
	}
}

// FuzzTraversal compares traversal with the walk at fuzzed sizes, seeds,
// strides, bases and shifts.
func FuzzTraversal(f *testing.F) {
	for _, s := range []struct {
		n      uint16
		seed   int64
		stride uint16
		base   uint32
		shift  uint8
	}{{0, 1, 0, 0, 0}, {1, 7, 63, 0, 6}, {15, -3, 99, 4096 + 192, 6}, {599, 123456789, 127, 64, 12}, {4095, 1 << 40, 4095, 1<<20 + 7, 12}} {
		f.Add(s.n, s.seed, s.stride, s.base, s.shift)
	}
	f.Fuzz(func(t *testing.T, n uint16, seed int64, stride uint16, base uint32, shift uint8) {
		checkTraversal(t, ChaseConfig{Elements: 2 + int(n), StrideBytes: 1 + int(stride), Base: uint64(base), Seed: seed}, uint(shift%17))
	})
}

// countingSource counts the values drawn from a source.
type countingSource struct {
	rand.Source
	draws int
}

func (c *countingSource) Int63() int64 {
	c.draws++
	return c.Source.Int63()
}

// TestIntnMatchesRand draws from twin sources through intn and rand.Intn:
// every result and every source position must agree, for m = 1, powers of
// two, m just past 2^30 and just below 2^31 (where Int31n's rejection
// fires, which the test checks happened), and random m.
func TestIntnMatchesRand(t *testing.T) {
	ms := []uint32{1, 1 << 30, 1<<31 - 1, 1<<31 - 2, 1<<30 + 1, 1<<30 + 3, 3 << 29, 3<<29 + 1}
	for b := 1; b < 31; b++ {
		ms = append(ms, 1<<b)
	}
	pick := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		ms = append(ms, 1+uint32(pick.Int31n(1<<31-1)))
	}
	for _, seed := range []int64{1, 42, -7} {
		src := &countingSource{Source: rand.NewSource(seed)}
		ref := rand.New(rand.NewSource(seed))
		rejected := 0
		for round := 0; round < 50; round++ {
			for _, m := range ms {
				before := src.draws
				got := intn(src, m)
				if want := ref.Intn(int(m)); int(got) != want {
					t.Fatalf("seed %d round %d: intn(%d) = %d, rand.Intn = %d", seed, round, m, got, want)
				}
				rejected += src.draws - before - 1
			}
		}
		if ref.Int63() != src.Int63() {
			t.Fatalf("seed %d: the sources drifted apart", seed)
		}
		if rejected < 100 {
			t.Fatalf("seed %d: only %d rejections fired", seed, rejected)
		}
	}
}
