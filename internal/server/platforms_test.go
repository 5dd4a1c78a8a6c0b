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
