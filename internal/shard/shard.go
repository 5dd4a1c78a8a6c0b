// Package shard assigns analysis keys to eventlensd replicas with a
// consistent-hash ring, so N cooperating daemons partition the keyspace
// instead of each recollecting every benchmark, and so losing a replica
// remaps only that replica's arc of the ring.
//
// The ring is a pure value: ownership is a function of (peer set, key) and
// nothing else — no clocks, no randomness, no per-process state — so every
// replica configured with the same peer list computes identical ownership,
// which is what lets any replica forward a request to the owner without
// coordination. The nondetsrc analyzer enforces the determinism.
//
// Each peer is placed at Virtual points on a 64-bit ring (FNV-1a hashed and
// splitmix64-finalized by internal/seed, as the fault plan is); a
// key is owned by the first peer point at or after the key's hash. Owners
// returns the distinct peers in ring order from the key — the failover
// sequence: if the owner is unreachable, the next owner serves, and only
// that key's arc moves.
package shard

import (
	"fmt"
	"sort"

	"github.com/perfmetrics/eventlens/internal/seed"
)

// DefaultVirtual is the default number of ring points per peer. 64 points
// keeps the expected load imbalance across a handful of replicas within a
// few percent while the ring stays small enough to rebuild on every config
// change.
const DefaultVirtual = 64

// Ring is an immutable consistent-hash ring over replica base URLs.
type Ring struct {
	peers  []string // sorted, deduplicated
	points []point  // sorted by hash
}

type point struct {
	hash uint64
	peer int // index into peers
}

// New builds a ring over the given peers with virtual points each (<= 0
// means DefaultVirtual). Peers are deduplicated and sorted, so rings built
// from differently-ordered flag values are identical. An empty peer list is
// an error: a ring with no owners cannot answer Owner.
func New(peers []string, virtual int) (*Ring, error) {
	if virtual <= 0 {
		virtual = DefaultVirtual
	}
	seen := map[string]bool{}
	var uniq []string
	for _, p := range peers {
		if p == "" {
			return nil, fmt.Errorf("shard: empty peer")
		}
		if !seen[p] {
			seen[p] = true
			uniq = append(uniq, p)
		}
	}
	if len(uniq) == 0 {
		return nil, fmt.Errorf("shard: no peers")
	}
	sort.Strings(uniq)
	r := &Ring{peers: uniq}
	r.points = make([]point, 0, len(uniq)*virtual)
	for i, p := range uniq {
		for v := 0; v < virtual; v++ {
			r.points = append(r.points, point{hash: pointHash(p, v), peer: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Ties (vanishingly rare) break by peer index so the ring is still a
		// pure function of the peer set.
		return r.points[a].peer < r.points[b].peer
	})
	return r, nil
}

// Peers returns the deduplicated, sorted peer list the ring was built over.
func (r *Ring) Peers() []string {
	return append([]string(nil), r.peers...)
}

// Owners returns up to n distinct peers in ring order starting at key's
// owner: the preference order for serving the key, and therefore the
// failover order when owners are unreachable. n <= 0 or n beyond the peer
// count returns every peer.
func (r *Ring) Owners(key string, n int) []string {
	if n <= 0 || n > len(r.peers) {
		n = len(r.peers)
	}
	out := make([]string, 0, n)
	seen := make(map[int]bool, n)
	for i := r.locate(key); len(out) < n; i = (i + 1) % len(r.points) {
		p := r.points[i].peer
		if !seen[p] {
			seen[p] = true
			out = append(out, r.peers[p])
		}
	}
	return out
}

// locate returns the index of the first ring point at or clockwise-after
// key's hash.
func (r *Ring) locate(key string) int {
	h := keyHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap past the highest point
	}
	return i
}

// pointHash places virtual point v of a peer on the ring.
func pointHash(peer string, v int) uint64 {
	return seed.Mix(seed.String(seed.String(seed.Offset, peer), fmt.Sprintf("#%d", v)))
}

// keyHash places a key on the ring. Keys and points share the mixing but
// not the input shape, so a peer URL used as a key does not self-collide.
func keyHash(key string) uint64 {
	return seed.Mix(seed.String(seed.String(seed.Offset, "key\xff"), key))
}
