package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"

	"github.com/perfmetrics/eventlens/internal/fault"
)

// peerHeader marks a request as forwarded by a peer replica. A marked
// request is always served locally, so forwarding terminates after one hop
// even if replicas disagree about ownership during reconfiguration.
const peerHeader = "X-Eventlens-Peer"

// servedByHeader names the replica that produced a forwarded response.
const servedByHeader = "X-Eventlens-Served-By"

// forwardToOwner relays req to the replica owning key, at the request's own
// path, and copies the response back. Every cached POST endpoint rides the
// same ring, hashed by its prefixed canonical key, so a tier shards analyses,
// validations, matrices, definitions and explanations alike. Peers answering with 5xx or a transport
// error are treated as down and the next owner in ring order is tried;
// anything else — including 429, so admission control is not defeated by
// rerouting — relays to the client byte-for-byte. It returns false when the
// request should be served locally: this replica owns the key, or every
// better-ranked owner is down.
func (s *Server) forwardToOwner(w http.ResponseWriter, r *http.Request, key string, req any) bool {
	owners := s.ring.Owners(key, 0)
	if owners[0] == s.self {
		s.shardRequests.With("local").Inc()
		return false
	}
	body, err := json.Marshal(req)
	if err != nil {
		return false
	}
	for _, peer := range owners {
		if peer == s.self {
			// Every owner ranked above this replica is down; serve locally.
			break
		}
		if s.peerFaulted(peer) {
			continue
		}
		resp, err := s.peerDo(r, peer, body)
		if err != nil {
			s.log.Warn("peer unreachable; failing over", "peer", peer, "err", err.Error())
			continue
		}
		if resp.StatusCode >= 500 {
			_ = resp.Body.Close()
			s.log.Warn("peer errored; failing over", "peer", peer, "status", resp.StatusCode)
			continue
		}
		defer resp.Body.Close()
		s.relay(w, resp, peer)
		s.shardRequests.With("forwarded").Inc()
		return true
	}
	s.shardRequests.With("failover").Inc()
	return false
}

// peerDo forwards the request body to one peer under the caller's context.
func (s *Server) peerDo(r *http.Request, peer string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost,
		peer+r.URL.Path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(peerHeader, s.self)
	return s.peerClient.Do(req)
}

// relay copies a peer's response to the client unchanged, adding only the
// served-by marker. The body bytes pass through verbatim — the sharded path
// must stay byte-identical to single-process serving.
func (s *Server) relay(w http.ResponseWriter, resp *http.Response, peer string) {
	for _, h := range []string{"Content-Type", "X-Eventlens-Cache", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set(servedByHeader, peer)
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// peerFaulted consults the chaos plan at the peer-forward seam before
// dialing: a Transient fault models the link (or peer) being down — the
// forward is skipped and failover proceeds exactly as it would on a real
// connection refusal — and Slow models a laggy link. Ordinals count per
// peer URL, so the nth forward to a peer sees the same fate in every run of
// the same seed.
func (s *Server) peerFaulted(peer string) bool {
	if s.chaos == nil {
		return false
	}
	s.seqMu.Lock()
	n := s.peerSeq[peer]
	s.peerSeq[peer] = n + 1
	s.seqMu.Unlock()
	coord := fault.Coord{Site: fault.SitePeer, Name: peer, Rep: n}
	switch kind := s.chaos.At(coord, 0); kind {
	case fault.Transient:
		s.faultsInjected.With(string(fault.SitePeer), kind.String()).Inc()
		s.log.Warn("peer link faulted; failing over", "peer", peer, "coord", coord.String())
		return true
	case fault.Slow:
		s.faultsInjected.With(string(fault.SitePeer), kind.String()).Inc()
		fault.Sleep(s.chaos.Delay(coord))
	}
	return false
}
