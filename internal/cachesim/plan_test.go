package cachesim

import (
	"math/rand"
	"reflect"
	"testing"
)

// walkOrder is the reference traversal: Sattolo's swaps (buildPerm, the
// permutation BuildChain walks) and the walk from element 0.
func walkOrder(t testing.TB, n int, seed int64) []uint32 {
	t.Helper()
	next, err := buildPerm(ChaseConfig{Elements: n, StrideBytes: 64, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	order := make([]uint32, n)
	cur := int32(0)
	for i := range order {
		order[i] = uint32(cur)
		cur = next[cur]
	}
	return order
}

// checkTraversal fails unless traversal's order equals the walk's.
func checkTraversal(t testing.TB, n int, seed int64) {
	t.Helper()
	got := make([]uint32, n)
	traversal(seed, got, make([]uint32, n))
	if want := walkOrder(t, n, seed); !reflect.DeepEqual(got, want) {
		i := 0
		for got[i] == want[i] {
			i++
		}
		t.Fatalf("n=%d seed=%d: traversal differs from the walk first at position %d: %d, walk %d", n, seed, i, got[i], want[i])
	}
}

// TestTraversalMatchesWalk pins analysis 3's identity: the order read off
// Sattolo's insertion tree is the walk of the cycle, for every n in 2–600 at
// several seeds, and for every chase of the shipped sweep at four threads
// with the chain seeds cat.DCache uses.
func TestTraversalMatchesWalk(t *testing.T) {
	for n := 2; n <= 600; n++ {
		for _, seed := range []int64{1, -3, 7919, 1 << 40} {
			checkTraversal(t, n, seed)
		}
	}
	chases := 0
	for thread := int64(0); thread < 4; thread++ {
		for i, p := range BuildSweep(SPRLikeConfig(), []int{64, 128}) {
			checkTraversal(t, p.Elements, 1+thread*7919+int64(i))
			chases++
		}
	}
	if chases != 64 {
		t.Fatalf("shipped sweep has %d chases at four threads, want 64", chases)
	}
}

// FuzzTraversal compares traversal with the walk at fuzzed sizes and seeds.
func FuzzTraversal(f *testing.F) {
	for _, s := range []struct {
		n    uint16
		seed int64
	}{{0, 1}, {1, 7}, {15, -3}, {599, 123456789}, {4095, 1 << 40}} {
		f.Add(s.n, s.seed)
	}
	f.Fuzz(func(t *testing.T, n uint16, seed int64) {
		checkTraversal(t, 2+int(n), seed)
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

// TestCountGroups pins the run-stepping group count against a count of every
// element, for strides below, at and above the key size, odd and power-of-two
// group counts, and unaligned bases.
func TestCountGroups(t *testing.T) {
	for _, shift := range []uint{6, 8, 12} {
		for _, stride := range []int{24, 64, 100, 128, 256, 4096, 5000} {
			for _, base := range []uint64{0, 64, 4096 + 192, 1<<20 + 7} {
				for _, mod := range []uint64{0, 1, 3, 16} {
					var mask uint64
					if mod > 1 && mod&(mod-1) == 0 {
						mask = mod - 1
					}
					cfg := ChaseConfig{Elements: 3001, StrideBytes: stride, Base: base}
					got := make([]int32, max(mod, 1))
					countGroups(got, cfg, shift, mask, mod)
					want := make([]int32, max(mod, 1))
					for i := 0; i < cfg.Elements; i++ {
						want[residue((base+uint64(i)*uint64(stride))>>shift, mask, mod)]++
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("shift %d stride %d base %d mod %d: counts %v, want %v", shift, stride, base, mod, got, want)
					}
				}
			}
		}
	}
}
