package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"testing"

	"github.com/perfmetrics/eventlens/internal/matrix"
	"github.com/perfmetrics/eventlens/internal/validate"
)

// cacheKeys lists a flight cache's keys, most recently used first.
func cacheKeys[V any](c *flightCache[V]) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var keys []string
	for el := c.ll.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*cacheEntry[V]).key)
	}
	return keys
}

// TestMeasureOnceAcrossEndpoints: on spr, the default analyses, then a
// validation, then two matrices at different thresholds collect exactly
// once per measurement key. The validation reads the analyses' cached
// profiles, and the matrices' cells come from their cached analyses; every
// response keeps the CLI's bytes.
func TestMeasureOnceAcrossEndpoints(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	benches := []string{"cpu-flops", "branch", "dcache"}
	for _, b := range benches {
		if w := postJSON(t, h, "/v1/analyze", fmt.Sprintf(`{"benchmark":%q}`, b)); w.Code != http.StatusOK {
			t.Fatalf("analyze %s: %d %s", b, w.Code, w.Body)
		}
	}
	keys := cacheKeys(s.sets)
	runs := s.pipelineRuns.Value()
	if len(keys) != len(benches) || s.collections.Value() != uint64(len(benches)) {
		t.Fatalf("analyses: %d collections, set cache %q; want one per benchmark", s.collections.Value(), keys)
	}

	w := postJSON(t, h, "/v1/events/validate", `{"platform":"spr"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("validate: %d %s", w.Code, w.Body)
	}
	rep, err := validate.RunIn(context.Background(), s.platforms, validate.Request{Platform: "spr"})
	if err != nil {
		t.Fatal(err)
	}
	if want := mustEncode(t, validate.NewEnvelope(rep)); !bytes.Equal(w.Body.Bytes(), want) {
		t.Fatal("validate: daemon bytes differ from RunIn's")
	}
	if got := s.batchCoalesced.Value(); got != uint64(len(benches)) {
		t.Fatalf("validate read %d cached profiles, want %d", got, len(benches))
	}

	analysisHits := s.analyses.hits.Value()
	for _, threshold := range []string{"", `,"threshold":0.002`} {
		body := `{"platforms":["spr"]` + threshold + `}`
		w := postJSON(t, h, "/v1/matrix", body)
		if w.Code != http.StatusOK {
			t.Fatalf("matrix %s: %d %s", body, w.Code, w.Body)
		}
		var req matrix.Request
		if threshold != "" {
			req.Threshold = 0.002
		}
		req.Platforms = []string{"spr"}
		rep, err := matrix.Run(context.Background(), s.platforms, req)
		if err != nil {
			t.Fatal(err)
		}
		if want := mustEncode(t, matrix.NewEnvelope(rep)); !bytes.Equal(w.Body.Bytes(), want) {
			t.Fatalf("matrix %s: daemon bytes differ from matrix.Run's", body)
		}
	}
	if got := s.collections.Value(); got != uint64(len(benches)) {
		t.Fatalf("%d collections over analyze, validate and matrix, want %d (one per measurement key)", got, len(benches))
	}
	if got := s.pipelineRuns.Value(); got != runs {
		t.Fatalf("matrices ran %d analyses, want 0: their pairs are the cached analyses", got-runs)
	}
	if got := s.analyses.hits.Value() - analysisHits; got != 2*uint64(len(benches)) {
		t.Fatalf("matrices read %d cached analyses, want %d", got, 2*len(benches))
	}
	if got := cacheKeys(s.sets); !slices.Equal(sorted(got), sorted(keys)) {
		t.Fatalf("set cache %q after validate and matrix, want %q", got, keys)
	}
}

// TestValidateMissLeavesSetCacheUnchanged: a validation collects the sets
// the set cache does not hold, counts those passes, and inserts nothing.
func TestValidateMissLeavesSetCacheUnchanged(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	if w := postJSON(t, h, "/v1/analyze", `{"benchmark":"branch"}`); w.Code != http.StatusOK {
		t.Fatalf("analyze: %d %s", w.Code, w.Body)
	}
	before := cacheKeys(s.sets)
	if w := postJSON(t, h, "/v1/events/validate", `{"platform":"spr"}`); w.Code != http.StatusOK {
		t.Fatalf("validate: %d %s", w.Code, w.Body)
	}
	if got := cacheKeys(s.sets); !slices.Equal(got, before) {
		t.Fatalf("set cache %q after a validation, want %q", got, before)
	}
	// branch was cached; cpu-flops and dcache were collected and dropped.
	if c, hits := s.collections.Value(), s.batchCoalesced.Value(); c != 3 || hits != 1 {
		t.Fatalf("%d collections and %d set-cache hits, want 3 and 1", c, hits)
	}
}

// TestValidateReadsCachedAnalysisProfiles: after the default analyses of
// cpu-flops, branch and dcache, branch at reps 2–9 (reps 5 is the default,
// an analysis-cache hit) puts seven more sets into the 8-entry set cache,
// evicting the default cpu-flops and branch sets. Their analyses are still
// cached, with their profiles, so a validation of spr collects nothing:
// eventlensd_collections_total does not move, and the bytes are RunIn's.
func TestValidateReadsCachedAnalysisProfiles(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	for _, body := range []string{`{"benchmark":"cpu-flops"}`, `{"benchmark":"branch"}`, `{"benchmark":"dcache"}`} {
		if w := postJSON(t, h, "/v1/analyze", body); w.Code != http.StatusOK {
			t.Fatalf("analyze %s: %d %s", body, w.Code, w.Body)
		}
	}
	for reps := 2; reps <= 9; reps++ {
		body := fmt.Sprintf(`{"benchmark":"branch","run":{"reps":%d,"threads":1}}`, reps)
		if w := postJSON(t, h, "/v1/analyze", body); w.Code != http.StatusOK {
			t.Fatalf("analyze %s: %d %s", body, w.Code, w.Body)
		}
	}
	if keys := cacheKeys(s.sets); len(keys) != setCacheSize || s.collections.Value() != 10 {
		t.Fatalf("%d collections, set cache %q; want 10 and a full cache", s.collections.Value(), keys)
	}
	collections := func() string {
		for _, line := range strings.Split(metricsText(t, h), "\n") {
			if strings.HasPrefix(line, "eventlensd_collections_total ") {
				return line
			}
		}
		t.Fatal("metrics: no eventlensd_collections_total")
		return ""
	}
	before, coalesced := collections(), s.batchCoalesced.Value()
	w := postJSON(t, h, "/v1/events/validate", `{"platform":"spr"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("validate: %d %s", w.Code, w.Body)
	}
	if after := collections(); after != before {
		t.Fatalf("the validation collected: %q before, %q after", before, after)
	}
	if got := s.batchCoalesced.Value() - coalesced; got != 3 {
		t.Fatalf("validate read %d cached profiles, want 3", got)
	}
	rep, err := validate.RunIn(context.Background(), s.platforms, validate.Request{Platform: "spr"})
	if err != nil {
		t.Fatal(err)
	}
	if want := mustEncode(t, validate.NewEnvelope(rep)); !bytes.Equal(w.Body.Bytes(), want) {
		t.Fatal("validate: daemon bytes differ from RunIn's")
	}
}

func sorted(s []string) []string {
	s = slices.Clone(s)
	slices.Sort(s)
	return s
}
