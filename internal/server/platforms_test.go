package server

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"github.com/perfmetrics/eventlens/internal/platdef"
)

// overrideDir writes a platform dir that changes bytes on every endpoint
// family: custom-sim, a renamed zen4-sim, and an spr-sim whose FP_ARITH
// events count FMA once instead of twice — the double count behind Table
// V's 0.236 backward error.
func overrideDir(t testing.TB) string {
	t.Helper()
	dir := t.TempDir()
	for _, f := range []struct{ name, from, old, new string }{
		{"custom-sim", "zen4-sim", "platform zen4-sim", "platform custom-sim"},
		{"spr-sim", "spr-sim", ".fma=2", ".fma=1"},
	} {
		raw, err := platdef.BuiltinBytes(f.from)
		if err != nil {
			t.Fatal(err)
		}
		edited := bytes.ReplaceAll(raw, []byte(f.old), []byte(f.new))
		if bytes.Equal(edited, raw) {
			t.Fatalf("%s: edit %q changed nothing", f.name, f.old)
		}
		if err := os.WriteFile(filepath.Join(dir, f.name+".pdef"), edited, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestPlatformsStoreKeysNameDefinitions: store keys name the definitions
// their requests read. Daemon A loads overrideDir and daemon B only the
// built-ins, on one store directory. After A stores its matrix and
// analysis, B's identical requests are misses, not disk hits of A's bytes,
// and B serves what a fresh built-in daemon computes.
func TestPlatformsStoreKeysNameDefinitions(t *testing.T) {
	store := t.TempDir()
	a := newTestServer(t, Config{PlatformDir: overrideDir(t), StoreDir: store}).Handler()
	b := newTestServer(t, Config{StoreDir: store}).Handler()
	fresh := newTestServer(t, Config{}).Handler()
	for _, tc := range []struct{ path, body string }{
		{"/v1/matrix", `{"platforms":["spr"],"benchmarks":["cpu-flops"]}`},
		{"/v1/analyze", `{"benchmark":"cpu-flops"}`},
	} {
		want := postJSON(t, fresh, tc.path, tc.body)
		wa := postJSON(t, a, tc.path, tc.body)
		wb := postJSON(t, b, tc.path, tc.body)
		for name, code := range map[string]int{"fresh": want.Code, "A": wa.Code, "B": wb.Code} {
			if code != http.StatusOK {
				t.Fatalf("%s %s: daemon %s answered %d", tc.path, tc.body, name, code)
			}
		}
		if bytes.Equal(wa.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("%s: the override did not change the bytes; the test has no teeth", tc.path)
		}
		if got := wb.Header().Get("X-Eventlens-Cache"); got != srcMiss {
			t.Errorf("%s: built-in daemon answered %q after the override daemon stored its bytes, want %q", tc.path, got, srcMiss)
		}
		if !bytes.Equal(wb.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("%s: built-in daemon on the shared store differs from a fresh one", tc.path)
		}
	}
}

// TestPlatformsRequestKeysNamePlatform: an analysis request's platform
// reaches both of its keys. Spellings of one platform ("spr", "spr-sim" or
// the benchmark's default) share one analysis key, so the second and third
// are cache hits. Two platforms with the same run are two collections — the
// measurement key names the platform's Ref too — and the second platform's
// bytes are a fresh daemon's, not an analysis of the first's profile.
func TestPlatformsRequestKeysNamePlatform(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	first := postJSON(t, h, "/v1/analyze", `{"benchmark":"cpu-flops"}`)
	if first.Code != http.StatusOK {
		t.Fatalf("analyze: %d %s", first.Code, first.Body)
	}
	for _, platform := range []string{"spr", "spr-sim"} {
		w := postJSON(t, h, "/v1/analyze", `{"benchmark":"cpu-flops","platform":"`+platform+`"}`)
		if got := w.Header().Get("X-Eventlens-Cache"); w.Code != http.StatusOK || got != "hit" {
			t.Fatalf("platform %q: %d, cache %q; want a 200 hit", platform, w.Code, got)
		}
		if !bytes.Equal(w.Body.Bytes(), first.Body.Bytes()) {
			t.Fatalf("platform %q served different bytes than the default platform", platform)
		}
	}

	const run = `"run":{"reps":2,"threads":1}`
	before := s.collections.Value()
	spr := postJSON(t, h, "/v1/analyze", `{"benchmark":"branch","platform":"spr",`+run+`}`)
	graviton := postJSON(t, h, "/v1/analyze", `{"benchmark":"branch","platform":"graviton",`+run+`}`)
	if spr.Code != http.StatusOK || graviton.Code != http.StatusOK {
		t.Fatalf("branch: spr %d, graviton %d", spr.Code, graviton.Code)
	}
	if got := s.collections.Value() - before; got != 2 {
		t.Fatalf("collections rose by %d, want 2 (one per platform)", got)
	}
	fresh := postJSON(t, newTestServer(t, Config{}).Handler(), "/v1/analyze",
		`{"benchmark":"branch","platform":"graviton",`+run+`}`)
	if !bytes.Equal(graviton.Body.Bytes(), fresh.Body.Bytes()) {
		t.Fatalf("graviton after spr differs from a fresh daemon's graviton:\n--- after spr\n%s\n--- fresh\n%s",
			graviton.Body, fresh.Body)
	}
}

// TestPlatformsExplainEventOutsideDefinition: explain resolves its event
// against the request's platform, so an spr-sim event is a 404 on graviton
// before any analysis, and an unknown platform or a class mismatch is a
// 400 on every endpoint of the analysis family.
func TestPlatformsExplainEventOutsideDefinition(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	decodeEnvelope(t, postJSON(t, h, "/v1/events/explain",
		`{"benchmark":"branch","platform":"graviton","event":"BR_INST_RETIRED:ALL_BRANCHES"}`), http.StatusNotFound)
	for _, platform := range []string{"nope", "mi250x"} {
		for _, path := range []string{"/v1/analyze", "/v1/events/explain", "/v1/jobs"} {
			decodeEnvelope(t, postJSON(t, h, path, `{"benchmark":"branch","platform":"`+platform+`"}`), http.StatusBadRequest)
		}
		decodeEnvelope(t, postJSON(t, h, "/v1/metrics/define",
			`{"benchmark":"branch","platform":"`+platform+`","metric":"Conditional Branches Taken."}`), http.StatusBadRequest)
	}
	if got := s.collections.Value(); got != 0 {
		t.Fatalf("rejected requests collected %d times", got)
	}
}
