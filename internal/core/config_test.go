package core

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// The Config JSON form is an API payload and a cache-key component: every
// field must round-trip exactly and the rendered forms must be canonical
// (equal configs render identically, distinct configs differently).
func TestConfigJSONRoundTrip(t *testing.T) {
	for _, cfg := range []Config{DefaultConfig(), CacheConfig(), {Tau: 1e-3, Alpha: 0.25, ProjectionTol: 0.125, RoundTol: 1e-9}} {
		data, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var back Config
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back != cfg {
			t.Fatalf("round trip changed config: %+v -> %s -> %+v", cfg, data, back)
		}
	}
}

func TestConfigJSONKeys(t *testing.T) {
	data, err := json.Marshal(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]float64
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"tau", "alpha", "projection_tol", "round_tol"} {
		if _, ok := m[key]; !ok {
			t.Errorf("canonical key %q missing from %s", key, data)
		}
	}
	if len(m) != 4 {
		t.Errorf("expected exactly 4 keys, got %s", data)
	}
}

// Workers parallelism cannot change results, so it must round-trip as an API
// field while staying invisible to the canonical JSON (when zero) and to
// String() — two configs differing only in Workers share a cache entry.
func TestConfigWorkers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 4
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var back Config
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != cfg {
		t.Fatalf("round trip changed config: %+v -> %s -> %+v", cfg, data, back)
	}
	var m map[string]float64
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m["workers"] != 4 {
		t.Fatalf("workers missing from JSON: %s", data)
	}
	if got, want := cfg.String(), DefaultConfig().String(); got != want {
		t.Fatalf("Workers leaked into the cache key: %q vs %q", got, want)
	}
}

func TestConfigStringCanonical(t *testing.T) {
	a, b := DefaultConfig(), DefaultConfig()
	if a.String() != b.String() {
		t.Fatalf("equal configs render differently: %q vs %q", a, b)
	}
	if DefaultConfig().String() == CacheConfig().String() {
		t.Fatal("distinct configs collide")
	}
	want := "tau=1e-10,alpha=0.0005,ptol=0.01,rtol=0.05"
	if got := DefaultConfig().String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// TestConfigValidateRoundTol: round_tol is a threshold like the others. A
// negative, NaN or infinite value is rejected by name — a negative one
// would let no coefficient round, yet analyze under a key of its own —
// while 0, what an omitted field decodes to, stays valid.
func TestConfigValidateRoundTol(t *testing.T) {
	for _, tol := range []float64{-1, math.Copysign(1e-300, -1), math.NaN(), math.Inf(1), math.Inf(-1)} {
		cfg := DefaultConfig()
		cfg.RoundTol = tol
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "round_tol") {
			t.Errorf("round_tol %v: err = %v, want a rejection naming round_tol", tol, err)
		}
	}
	for _, tol := range []float64{0, 1e-9, 0.05, 0.5} {
		cfg := DefaultConfig()
		cfg.RoundTol = tol
		if err := cfg.Validate(); err != nil {
			t.Errorf("round_tol %v: %v", tol, err)
		}
	}
}
