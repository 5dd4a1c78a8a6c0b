package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/perfmetrics/eventlens/internal/par"
)

func open(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := open(t)
	key := "cpu-flops|reps=5,threads=1|tau=1e-10,alpha=0.0005,ptol=0.01,rtol=0.05"
	payload := []byte(`{"benchmark":"cpu-flops"}` + "\n")
	if _, err := s.Get(key); !errors.Is(err, ErrNotExist) {
		t.Fatalf("cold Get error = %v, want ErrNotExist", err)
	}
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, want %q", got, payload)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	// Overwrite is atomic and idempotent.
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len after re-put = %d, want 1", s.Len())
	}
}

func TestReopenWarmsFromDisk(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// A second store over the same directory — the restart path — sees the
	// entry without any handoff.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Get("k")
	if err != nil || string(got) != "v" {
		t.Fatalf("reopened Get = %q, %v", got, err)
	}
}

func TestEmptyPayloadAndLargeKey(t *testing.T) {
	s := open(t)
	long := strings.Repeat("k", 4096)
	if err := s.Put(long, nil); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(long)
	if err != nil || len(got) != 0 {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if err := s.Put("", []byte("x")); err == nil {
		t.Fatal("empty key accepted")
	}
}

// corrupt applies mutate to key's entry file on disk.
func corrupt(t *testing.T, s *Store, key string, mutate func([]byte) []byte) {
	t.Helper()
	path := s.Path(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mutate(raw), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptionDegradesToMiss is the store half of the resilience contract:
// every way an entry can rot — truncation anywhere, a flipped payload bit, a
// wrong magic, garbage, a key collision — must surface as ErrCorrupt, never
// a wrong payload and never a panic.
func TestCorruptionDegradesToMiss(t *testing.T) {
	key := "bench|run|cfg"
	payload := []byte("the analysis response body")
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"truncated-mid-payload", func(raw []byte) []byte { return raw[:len(raw)-3] }},
		{"truncated-to-header", func(raw []byte) []byte { return raw[:len(magic)+4] }},
		{"empty-file", func(raw []byte) []byte { return nil }},
		{"flipped-payload-bit", func(raw []byte) []byte {
			raw[len(raw)-1] ^= 0x40
			return raw
		}},
		{"flipped-length", func(raw []byte) []byte {
			raw[len(magic)+7] ^= 0xff
			return raw
		}},
		{"bad-magic", func(raw []byte) []byte {
			raw[0] = 'X'
			return raw
		}},
		{"garbage", func(raw []byte) []byte { return []byte("not a store entry at all") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := open(t)
			if err := s.Put(key, payload); err != nil {
				t.Fatal(err)
			}
			corrupt(t, s, key, tc.mutate)
			got, err := s.Get(key)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Get after %s = (%q, %v), want ErrCorrupt", tc.name, got, err)
			}
			if got != nil {
				t.Fatalf("corrupt Get leaked payload %q", got)
			}
		})
	}
}

// TestWrongKeyEntryIsCorrupt plants a valid entry under another key's
// address (what a buggy sync tool or a hash collision would look like): the
// embedded key check must reject it.
func TestWrongKeyEntryIsCorrupt(t *testing.T) {
	s := open(t)
	if err := s.Put("other-key", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(s.Path("other-key"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.Path("victim-key"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("victim-key"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("foreign entry accepted: %v", err)
	}
}

// TestConcurrentWriteRename races many writers of the same key against many
// readers: under -race this proves the atomic write-rename protocol — every
// read observes either a miss or the complete payload, never a torn write.
func TestConcurrentWriteRename(t *testing.T) {
	s := open(t)
	key := "contended-key"
	payload := bytes.Repeat([]byte("deterministic-bytes-"), 512)
	errc := make(chan error, 64)
	// One par.For fan-out runs 8 writers and 8 readers concurrently; the pool
	// dispatches all 16 tasks at once, so writers and readers still contend.
	par.For(16, 16, func(i int) {
		if i < 8 {
			for j := 0; j < 20; j++ {
				if err := s.Put(key, payload); err != nil {
					errc <- err
					return
				}
			}
			return
		}
		for j := 0; j < 40; j++ {
			got, err := s.Get(key)
			switch {
			case errors.Is(err, ErrNotExist):
				// not yet published — fine
			case err != nil:
				errc <- fmt.Errorf("reader saw %v", err)
				return
			case !bytes.Equal(got, payload):
				errc <- fmt.Errorf("reader saw torn payload (%d bytes)", len(got))
				return
			}
		}
	})
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	// No temporary droppings survive the writers.
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("leftover temp file %s", e.Name())
		}
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

// TestDistinctKeysDistinctFiles pins content addressing: different keys land
// in different files, and Path is stable.
func TestDistinctKeysDistinctFiles(t *testing.T) {
	s := open(t)
	if s.Path("a") == s.Path("b") {
		t.Fatal("distinct keys share a path")
	}
	if s.Path("a") != s.Path("a") {
		t.Fatal("Path not stable")
	}
	if filepath.Dir(s.Path("a")) != s.dir {
		t.Fatal("entry outside store dir")
	}
	if err := s.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", []byte("2")); err != nil {
		t.Fatal(err)
	}
	av, _ := s.Get("a")
	bv, _ := s.Get("b")
	if string(av) != "1" || string(bv) != "2" {
		t.Fatalf("cross-talk: a=%q b=%q", av, bv)
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("Open(\"\") accepted")
	}
}
