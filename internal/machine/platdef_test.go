package machine

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/perfmetrics/eventlens/internal/mat"
	"github.com/perfmetrics/eventlens/internal/platdef"
)

// TestBuiltinSeedPlatformShapes pins the architectural facts the paper's
// tables depend on, now asserted against the data-loaded platforms.
func TestBuiltinSeedPlatformShapes(t *testing.T) {
	spr, err := BuiltinPlatform("spr-sim")
	if err != nil {
		t.Fatal(err)
	}
	if spr.Name != "spr-sim" || spr.Class != "cpu" || spr.Counters != 8 {
		t.Fatalf("spr shape: name=%q class=%q counters=%d", spr.Name, spr.Class, spr.Counters)
	}
	// The FMA-counts-twice quirk must survive the data round trip bitwise.
	ev, ok := spr.Lookup("FP_ARITH_INST_RETIRED:SCALAR_DOUBLE")
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
	if i := slices.IndexFunc(spr.Constraints, func(c platdef.Constraint) bool { return c.Event == "INST_RETIRED:ANY" }); i < 0 || spr.Constraints[i].Fixed != 0 {
		t.Fatalf("spr fixed-counter constraint of INST_RETIRED:ANY lost (index %d)", i)
	}

	gpu, err := BuiltinPlatform("mi250x-sim")
	if err != nil {
		t.Fatal(err)
	}
	if gpu.Class != "gpu" {
		t.Fatalf("mi250x class = %q, want gpu", gpu.Class)
	}
	// Add counts subs too — the Table VI quirk.
	add, ok := gpu.Lookup("rocm:::SQ_INSTS_VALU_ADD_F16:device=0")
	if !ok {
		t.Fatal("mi250x: rocm:::SQ_INSTS_VALU_ADD_F16:device=0 missing")
	}
	if v := add.Count(Stats{GPUValuKey("sub", "f16"): 3}); !mat.ExactEq(v, 3) {
		t.Fatalf("mi250x add/sub merge lost: %v, want 3", v)
	}

	z, err := BuiltinPlatform("zen4-sim")
	if err != nil {
		t.Fatal(err)
	}
	if z.Class != "cpu" {
		t.Fatalf("zen4 class = %q, want cpu", z.Class)
	}
	w, ok := z.Lookup("RETIRED_SSE_AVX_OPS:256B_ALL")
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
	if _, err := reg.Platform("nope"); err == nil {
		t.Fatal("Platform(nope) should fail")
	}
	p, err := reg.Platform("icl")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "icl-sim" || p.Class != "cpu" {
		t.Fatalf("icl platform: name=%q class=%q", p.Name, p.Class)
	}
}

// TestRegistryLoadDirOverride: NewRegistry loads each non-empty dir after
// the built-ins. New names extend the registry; a built-in name is replaced
// in place. Refs follow content: an overriding definition gets a new Ref,
// and a byte-identical copy of a built-in keeps the built-in's.
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
	builtins, err := NewRegistry("")
	if err != nil {
		t.Fatal(err)
	}
	reg, err := NewRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	before := len(builtins.Names())
	if got := reg.Names(); len(got) != before+1 || got[before] != "tiny-sim" {
		t.Fatalf("names after load = %v", got)
	}
	p, err := reg.Platform("tiny")
	if err != nil {
		t.Fatal(err)
	}
	if p.Counters != 2 || len(p.Events) != 1 {
		t.Fatalf("tiny platform: counters=%d events=%d", p.Counters, len(p.Events))
	}

	// A second dir reusing a builtin name replaces it in place; a copy of
	// a builtin changes nothing, its Ref included.
	override := `platdef v1

platform zen4-sim
class cpu
counters 3

event ONLY
  respond cpu.cycles=1
`
	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, "zen4-sim.pdef"), []byte(override), 0o644); err != nil {
		t.Fatal(err)
	}
	icl, err := platdef.BuiltinBytes("icl-sim")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir2, "icl-sim.pdef"), icl, 0o644); err != nil {
		t.Fatal(err)
	}
	reg, err = NewRegistry(dir, dir2)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(reg.Names()); got != before+1 {
		t.Fatalf("override grew the registry: %d names", got)
	}
	z, err := reg.Platform("zen4")
	if err != nil {
		t.Fatal(err)
	}
	if z.Counters != 3 || len(z.Events) != 1 {
		t.Fatalf("zen4 override not applied: counters=%d events=%d", z.Counters, len(z.Events))
	}
	ref := func(r *Registry, name string) string {
		t.Helper()
		s, err := r.Ref(name)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if got, was := ref(reg, "zen4"), ref(builtins, "zen4"); got == was || !strings.HasPrefix(got, "zen4-sim@") {
		t.Fatalf("zen4 override Ref %q, built-in %q", got, was)
	}
	if got, want := ref(reg, "icl"), ref(builtins, "icl-sim"); got != want {
		t.Fatalf("a copy of icl-sim changed its Ref: %q, want %q", got, want)
	}
	if want := "icl-sim@" + platdef.Digest(icl); ref(builtins, "icl") != want {
		t.Fatalf("built-in Ref %q is not the digest of its file %q", ref(builtins, "icl"), want)
	}
	if _, err := reg.Ref("m2max"); err == nil {
		t.Fatal("Ref(m2max) should fail")
	}

	// An override keeps its platform's class: benchmarks pick their default
	// platform by name.
	mi, err := platdef.BuiltinBytes("mi250x-sim")
	if err != nil {
		t.Fatal(err)
	}
	gpu := t.TempDir()
	spr := bytes.Replace(mi, []byte("platform mi250x-sim"), []byte("platform spr-sim"), 1)
	if err := os.WriteFile(filepath.Join(gpu, "spr-sim.pdef"), spr, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewRegistry(gpu); err == nil || !strings.Contains(err.Error(), "redefines cpu-class platform spr-sim as gpu-class") {
		t.Fatalf("class-changing override: err = %v", err)
	}
}

// TestRegistryRejectsUnknownKeys: a loaded definition whose respond or doc
// term names a stat key no simulator populates fails NewRegistry, with an
// error naming the dir, the platform, the event and the key — not every
// later collection on it.
func TestRegistryRejectsUnknownKeys(t *testing.T) {
	for _, c := range []struct{ line, verb string }{
		{"respond cpu.fp.bogus=1", "responds to"},
		{"respond cpu.instr=1\n  doc cpu.fp.bogus=1", "documents"},
	} {
		dir := t.TempDir()
		def := "platdef v1\n\nplatform tiny-sim\nclass cpu\ncounters 2\n\nevent E1\n  " + c.line + "\n"
		if err := os.WriteFile(filepath.Join(dir, "tiny-sim.pdef"), []byte(def), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := NewRegistry(dir)
		want := fmt.Sprintf(`machine: %s: platform "tiny-sim" event "E1" %s unknown stat key "cpu.fp.bogus"`, dir, c.verb)
		if err == nil || err.Error() != want {
			t.Fatalf("%s: err = %v, want %s", c.line, err, want)
		}
	}
}

// TestRegistryRejectsAliasCollisions: a loaded definition named with the
// other spelling of a registered platform ("spr" beside "spr-sim") fails
// NewRegistry, with an error naming the dir and both platforms: accepted,
// the short name would resolve to one platform and the full name to the
// other.
func TestRegistryRejectsAliasCollisions(t *testing.T) {
	zen4, err := platdef.BuiltinBytes("zen4-sim")
	if err != nil {
		t.Fatal(err)
	}
	tiny := func(name string) []byte {
		return []byte("platdef v1\n\nplatform " + name + "\nclass cpu\ncounters 2\n\nevent E1\n  respond cpu.instr=1\n")
	}
	write := func(name string, def []byte) string {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name+".pdef"), def, 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	spr := write("spr", bytes.Replace(zen4, []byte("platform zen4-sim"), []byte("platform spr"), 1))
	foo, fooSim := write("foo", tiny("foo")), write("foo-sim", tiny("foo-sim"))
	for _, c := range []struct {
		dirs []string
		want string
	}{
		{[]string{spr}, fmt.Sprintf(`machine: %s: platform spr collides with platform spr-sim: "spr" would name both`, spr)},
		{[]string{foo, fooSim}, fmt.Sprintf(`machine: %s: platform foo-sim collides with platform foo: "foo" would name both`, fooSim)},
		{[]string{fooSim, foo}, fmt.Sprintf(`machine: %s: platform foo collides with platform foo-sim: "foo" would name both`, foo)},
	} {
		if _, err := NewRegistry(c.dirs...); err == nil || err.Error() != c.want {
			t.Errorf("NewRegistry(%v): err = %v, want %s", c.dirs, err, c.want)
		}
	}
	// Each spelling alone is a platform of its own.
	for _, dir := range []string{foo, fooSim} {
		reg, err := NewRegistry(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := reg.Platform("foo"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFromDefRejectsUnknownKeys: FromDef, the constructor of a live
// platform outside a registry, rejects terms over stat keys no simulator
// populates, and definitions platdef.Validate rejects, such as one with a
// duplicate event.
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
	def.Events = []platdef.Event{{Name: "E"}, {Name: "E"}}
	if _, err := FromDef(def); err == nil || !strings.Contains(err.Error(), `duplicate event "E"`) {
		t.Fatalf("duplicate event: err = %v", err)
	}
}
