package shard

import (
	"fmt"
	"reflect"
	"testing"
)

var peers3 = []string{
	"http://127.0.0.1:7001",
	"http://127.0.0.1:7002",
	"http://127.0.0.1:7003",
}

func ring(t *testing.T, peers []string) *Ring {
	t.Helper()
	r, err := New(peers, 0)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("bench-%d|reps=5,threads=%d|tau=1e-10", i, i%4+1)
	}
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, 0); err == nil {
		t.Fatal("empty peer list accepted")
	}
	if _, err := New([]string{"a", ""}, 0); err == nil {
		t.Fatal("empty peer accepted")
	}
}

// TestDeterministicAcrossOrderings is the property peer forwarding rests on:
// every replica, whatever order its -peers flag lists, must agree on
// ownership of every key.
func TestDeterministicAcrossOrderings(t *testing.T) {
	a := ring(t, peers3)
	b := ring(t, []string{peers3[2], peers3[0], peers3[1], peers3[0]}) // shuffled + dup
	if !reflect.DeepEqual(a.Peers(), b.Peers()) {
		t.Fatalf("peer lists differ: %v vs %v", a.Peers(), b.Peers())
	}
	for _, k := range keys(200) {
		if !reflect.DeepEqual(a.Owners(k, 3), b.Owners(k, 3)) {
			t.Fatalf("failover order of %q differs", k)
		}
	}
}

// TestOwnersDistinctAndComplete checks the failover sequence shape: every
// peer exactly once, truncation honored.
func TestOwnersDistinctAndComplete(t *testing.T) {
	r := ring(t, peers3)
	for _, k := range keys(50) {
		all := r.Owners(k, 0)
		if len(all) != 3 {
			t.Fatalf("Owners(%q, 0) = %v", k, all)
		}
		seen := map[string]bool{}
		for _, p := range all {
			if seen[p] {
				t.Fatalf("duplicate peer %q in %v", p, all)
			}
			seen[p] = true
		}
		if got := r.Owners(k, 2); len(got) != 2 || got[0] != all[0] || got[1] != all[1] {
			t.Fatalf("Owners(%q, 2) = %v, want prefix of %v", k, got, all)
		}
	}
}

// TestBalance checks the virtual-node spreading: across many keys no peer
// owns a wildly disproportionate share. The bound is loose (half to double
// the fair share) — the point is catching a broken hash, not perfection.
func TestBalance(t *testing.T) {
	r := ring(t, peers3)
	counts := map[string]int{}
	const n = 3000
	for _, k := range keys(n) {
		counts[r.Owners(k, 1)[0]]++
	}
	fair := n / len(peers3)
	for p, c := range counts {
		if c < fair/2 || c > fair*2 {
			t.Errorf("peer %s owns %d of %d keys (fair share %d)", p, c, n, fair)
		}
	}
}

// TestMinimalRemapping is the consistent-hashing property itself: removing
// one peer must move only the keys that peer owned; every other key keeps
// its owner. That is why a killed replica costs one arc of cache, not a
// cluster-wide recollection.
func TestMinimalRemapping(t *testing.T) {
	full := ring(t, peers3)
	reduced := ring(t, peers3[:2])
	moved := 0
	for _, k := range keys(1000) {
		before := full.Owners(k, 1)[0]
		after := reduced.Owners(k, 1)[0]
		if before != peers3[2] && before != after {
			t.Fatalf("key %q moved %q -> %q though its owner survived", k, before, after)
		}
		if before == peers3[2] {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("degenerate test: removed peer owned nothing")
	}
}

// TestFailoverMatchesReducedRing ties Owners to remapping: the peer a key
// fails over to (second in Owners) is exactly the owner the ring without
// the dead peer would elect — survivors agree with forwarders.
func TestFailoverMatchesReducedRing(t *testing.T) {
	full := ring(t, peers3)
	for _, k := range keys(300) {
		order := full.Owners(k, 0)
		dead := order[0]
		var survivors []string
		for _, p := range peers3 {
			if p != dead {
				survivors = append(survivors, p)
			}
		}
		if got := ring(t, survivors).Owners(k, 1)[0]; got != order[1] {
			t.Fatalf("key %q: failover %q, reduced ring elects %q", k, order[1], got)
		}
	}
}

func TestSinglePeerOwnsEverything(t *testing.T) {
	r := ring(t, []string{"http://localhost:1"})
	for _, k := range keys(20) {
		if r.Owners(k, 1)[0] != "http://localhost:1" {
			t.Fatal("single peer must own every key")
		}
	}
}

// TestOwnersPinned pins ring placement: the failover order of fixed keys on
// a fixed peer set. Every replica of a tier must compute the same owners, so
// a change to the point or key hash — its offset, separator or finalizer —
// moves keys between replicas and fails here first.
func TestOwnersPinned(t *testing.T) {
	r := ring(t, peers3)
	var got []string
	for _, k := range append(keys(8), "", "key", "http://127.0.0.1:7001") {
		order := ""
		for _, o := range r.Owners(k, 0) {
			order += o[len(o)-1:]
		}
		got = append(got, order)
	}
	if want := "[321 321 213 213 132 132 231 312 213 132 321]"; fmt.Sprint(got) != want {
		t.Errorf("owners = %s, want %s", got, want)
	}
}
