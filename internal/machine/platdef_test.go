package machine

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"github.com/perfmetrics/eventlens/internal/mat"
	"github.com/perfmetrics/eventlens/internal/platdef"
)

// TestBuiltinFilesCanonical is the byte-identity regression gate for the
// data platforms: every committed .pdef file must round-trip
// load -> export -> canonicalize back to its exact committed bytes. This
// proves the committed files are canonical (no formatting drift) and that
// FromDef and ExportDef lose no information.
func TestBuiltinFilesCanonical(t *testing.T) {
	for _, name := range platdef.BuiltinNames() {
		t.Run(name, func(t *testing.T) {
			committed, err := platdef.BuiltinBytes(name)
			if err != nil {
				t.Fatal(err)
			}
			p, err := BuiltinPlatform(name)
			if err != nil {
				t.Fatal(err)
			}
			def, err := ExportDef(p)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(def.Canonical(), committed) {
				t.Fatalf("platform %s: exported definition differs from committed %s.pdef", name, name)
			}
		})
	}
}

// TestBuiltinSeedPlatformShapes pins the architectural facts the paper's
// tables depend on, now asserted against the data-loaded platforms.
func TestBuiltinSeedPlatformShapes(t *testing.T) {
	spr, err := SapphireRapids()
	if err != nil {
		t.Fatal(err)
	}
	if spr.Name != "spr-sim" || spr.Class != "cpu" || spr.Counters != 8 {
		t.Fatalf("spr shape: name=%q class=%q counters=%d", spr.Name, spr.Class, spr.Counters)
	}
	// The FMA-counts-twice quirk must survive the data round trip bitwise.
	ev, ok := spr.Catalog.Lookup("FP_ARITH_INST_RETIRED:SCALAR_DOUBLE")
	if !ok {
		t.Fatal("spr: FP_ARITH_INST_RETIRED:SCALAR_DOUBLE missing")
	}
	got := ev.Count(Stats{FPKey("dp", "scalar", true): 1})
	if !mat.ExactEq(got, 2) {
		t.Fatalf("spr FMA quirk lost in data round trip: coeff %v, want 2", got)
	}
	if doc, ok := ev.DocExpectation(Stats{FPKey("dp", "scalar", true): 1}); !ok || !mat.ExactEq(doc, 1) {
		t.Fatalf("spr FMA documented semantics lost: doc %v ok=%v, want 1", doc, ok)
	}
	if c, ok := spr.Constraints["INST_RETIRED:ANY"]; !ok || c.Fixed != 0 {
		t.Fatalf("spr fixed-counter constraint lost: %+v ok=%v", c, ok)
	}

	gpu, err := MI250X()
	if err != nil {
		t.Fatal(err)
	}
	if gpu.Class != "gpu" {
		t.Fatalf("mi250x class = %q, want gpu", gpu.Class)
	}
	// Add counts subs too — the Table VI quirk.
	add, ok := gpu.Catalog.Lookup("rocm:::SQ_INSTS_VALU_ADD_F16:device=0")
	if !ok {
		t.Fatal("mi250x: rocm:::SQ_INSTS_VALU_ADD_F16:device=0 missing")
	}
	if v := add.Count(Stats{GPUValuKey("sub", "f16"): 3}); !mat.ExactEq(v, 3) {
		t.Fatalf("mi250x add/sub merge lost: %v, want 3", v)
	}

	z, err := Zen4()
	if err != nil {
		t.Fatal(err)
	}
	if z.Class != "cpu" {
		t.Fatalf("zen4 class = %q, want cpu", z.Class)
	}
	w, ok := z.Catalog.Lookup("RETIRED_SSE_AVX_OPS:256B_ALL")
	if !ok {
		t.Fatal("zen4: RETIRED_SSE_AVX_OPS:256B_ALL missing")
	}
	// Precision-merged, FMA once: sp and dp 256-bit both count 1.
	if v := w.Count(Stats{FPKey("sp", "256", false): 1, FPKey("dp", "256", true): 1}); !mat.ExactEq(v, 2) {
		t.Fatalf("zen4 width merge lost: %v, want 2", v)
	}
}

func TestRegistryResolution(t *testing.T) {
	reg, err := NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	names := reg.Names()
	if len(names) != len(platdef.BuiltinNames()) {
		t.Fatalf("registry names = %v", names)
	}
	if names[0] != "spr-sim" || names[1] != "mi250x-sim" || names[2] != "zen4-sim" {
		t.Fatalf("seed platforms not first: %v", names)
	}
	for _, tc := range []struct{ in, want string }{
		{"spr", "spr-sim"}, {"spr-sim", "spr-sim"},
		{"mi250x", "mi250x-sim"}, {"zen4", "zen4-sim"},
		{"graviton", "graviton-sim"}, {"h100-sim", "h100-sim"},
		{"spr-smtoff", "spr-smtoff-sim"},
	} {
		got, err := reg.Canonical(tc.in)
		if err != nil {
			t.Fatalf("Canonical(%q): %v", tc.in, err)
		}
		if got != tc.want {
			t.Fatalf("Canonical(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
	if _, err := reg.Canonical("m2max"); err == nil {
		t.Fatal("Canonical(m2max) should fail")
	}
	if _, err := reg.New("nope"); err == nil {
		t.Fatal("New(nope) should fail")
	}
	p, err := reg.New("icl")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "icl-sim" || p.Class != "cpu" {
		t.Fatalf("icl platform: name=%q class=%q", p.Name, p.Class)
	}
}

func TestRegistryLoadDirOverride(t *testing.T) {
	dir := t.TempDir()
	def := `platdef v1

platform tiny-sim
class cpu
counters 2

event E1
  desc only event
  respond cpu.instr=1
  doc cpu.instr=1
`
	if err := os.WriteFile(filepath.Join(dir, "tiny-sim.pdef"), []byte(def), 0o644); err != nil {
		t.Fatal(err)
	}
	reg, err := NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	before := len(reg.Names())
	added, err := reg.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(added) != 1 || added[0] != "tiny-sim" {
		t.Fatalf("added = %v", added)
	}
	if got := len(reg.Names()); got != before+1 {
		t.Fatalf("names after load = %d, want %d", got, before+1)
	}
	p, err := reg.New("tiny")
	if err != nil {
		t.Fatal(err)
	}
	if p.Counters != 2 || p.Catalog.Len() != 1 {
		t.Fatalf("tiny platform: counters=%d events=%d", p.Counters, p.Catalog.Len())
	}

	// A directory definition reusing a builtin name replaces it in place.
	override := `platdef v1

platform zen4-sim
class cpu
counters 3

event ONLY
  respond cpu.cycles=1
`
	if err := os.WriteFile(filepath.Join(dir, "zen4-sim.pdef"), []byte(override), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	if got := len(reg.Names()); got != before+1 {
		t.Fatalf("override grew the registry: %d names", got)
	}
	z, err := reg.New("zen4")
	if err != nil {
		t.Fatal(err)
	}
	if z.Counters != 3 || z.Catalog.Len() != 1 {
		t.Fatalf("zen4 override not applied: counters=%d events=%d", z.Counters, z.Catalog.Len())
	}
}

func TestFromDefRejectsUnknownKeys(t *testing.T) {
	def := &platdef.Platform{
		Name: "bad-sim", Class: "cpu", Counters: 4,
		Events: []platdef.Event{{
			Name:    "E",
			Respond: []platdef.Term{{Key: "cpu.made.up", Coeff: 1}},
		}},
	}
	if _, err := FromDef(def); err == nil {
		t.Fatal("unknown stat key should be rejected")
	}
}
