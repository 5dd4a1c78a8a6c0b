package platdef

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func writeFile(dir, name, content string) error {
	return os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644)
}

const tinyDef = `platdef v1

platform tiny-sim
class cpu
counters 4
fixed CYCLES 1
allowed LOADS 0,2

event CYCLES
  desc core clock cycles
  noise 0.0001 0
  respond cpu.cycles=1
  doc cpu.cycles=1

event LOADS
  desc retired loads
  respond cpu.loads=1

event DEAD
  desc responds to nothing
  doc
`

func parseTiny(t *testing.T) *Platform {
	t.Helper()
	p, err := Parse([]byte(tinyDef))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestParseCanonicalFixpoint: parse -> canonicalize -> parse is a fixpoint,
// and canonicalize is idempotent from the first application.
func TestParseCanonicalFixpoint(t *testing.T) {
	p := parseTiny(t)
	c1 := p.Canonical()
	p2, err := Parse(c1)
	if err != nil {
		t.Fatalf("canonical form failed to parse: %v\n%s", err, c1)
	}
	c2 := p2.Canonical()
	if !bytes.Equal(c1, c2) {
		t.Fatalf("canonicalize not a fixpoint:\n--- first\n%s\n--- second\n%s", c1, c2)
	}
}

// TestPermutationsLoadIdentically: reordering directives, term order,
// whitespace and comments must not change the loaded platform.
func TestPermutationsLoadIdentically(t *testing.T) {
	want := parseTiny(t).Canonical()
	variants := map[string]string{
		"reordered directives": `platdef v1
counters 4
allowed LOADS 0,2
platform tiny-sim
fixed CYCLES 1
class cpu

event CYCLES
  doc cpu.cycles=1
  respond cpu.cycles=1
  noise 0.0001 0
  desc core clock cycles

event LOADS
  respond cpu.loads=1
  desc retired loads

event DEAD
  doc
  desc responds to nothing
`,
		"noisy whitespace and comments": `
# platform definition
platdef v1


platform    tiny-sim
class cpu
counters 4
  fixed CYCLES 1
allowed LOADS 0, 2

# clocks
event CYCLES
	desc core clock cycles
	noise 1e-4 0.0
	respond cpu.cycles=1.0
	doc cpu.cycles=1.0

event LOADS
  desc retired loads
  respond cpu.loads=1
event DEAD
  desc responds to nothing
  doc
`,
		"terms out of order": `platdef v1
platform tiny-sim
class cpu
counters 4
fixed CYCLES 1
allowed LOADS 2,0

event CYCLES
  desc core clock cycles
  noise 0.0001 0
  respond cpu.cycles=1
  doc cpu.cycles=1

event LOADS
  desc retired loads
  respond cpu.loads=1

event DEAD
  desc responds to nothing
  doc
`,
	}
	for name, text := range variants {
		t.Run(name, func(t *testing.T) {
			p, err := Parse([]byte(text))
			if err != nil {
				t.Fatal(err)
			}
			if got := p.Canonical(); !bytes.Equal(got, want) {
				t.Fatalf("variant loads differently:\n--- got\n%s\n--- want\n%s", got, want)
			}
		})
	}
}

// Term order inside one directive is semantic input in any order, canonical
// output sorted; a multi-term event exercises that.
func TestMultiTermSorting(t *testing.T) {
	a := `platdef v1
platform t-sim
class cpu
counters 2

event E
  respond cpu.instr=1.5 br.misp=6
`
	b := `platdef v1
platform t-sim
class cpu
counters 2

event E
  respond br.misp=6 cpu.instr=1.5
`
	pa, err := Parse([]byte(a))
	if err != nil {
		t.Fatal(err)
	}
	pb, err := Parse([]byte(b))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pa.Canonical(), pb.Canonical()) {
		t.Fatal("term order changed canonical form")
	}
	if pa.Events[0].Respond[0].Key != "br.misp" {
		t.Fatalf("terms not sorted: %+v", pa.Events[0].Respond)
	}
}

// TestEventCountAndDocExpectation pins the one evaluator behind both the
// actual and the documented count: absent keys read as zero, terms are
// summed in key order (the a, b, c order below cancels the 1 that a, c, b
// would keep), and only an undocumented event has no expectation.
func TestEventCountAndDocExpectation(t *testing.T) {
	terms := []Term{{Key: "a", Coeff: 1e16}, {Key: "b", Coeff: 1}, {Key: "c", Coeff: -1e16}}
	e := Event{Name: "E", Respond: terms, Documented: true, Doc: terms[1:2]}
	stats := map[string]float64{"a": 1, "b": 1, "c": 1, "unused": 9}
	if got := e.Count(stats); got != 0 {
		t.Fatalf("Count = %v, want 0 (key-order sum)", got)
	}
	if got := e.Count(map[string]float64{"b": 3}); got != 3 {
		t.Fatalf("Count with absent keys = %v, want 3", got)
	}
	if got, ok := e.DocExpectation(stats); !ok || got != 1 {
		t.Fatalf("DocExpectation = %v, %v; want 1, true", got, ok)
	}
	if got, ok := (Event{Name: "S", Documented: true}).DocExpectation(stats); !ok || got != 0 {
		t.Fatalf("documented-silent DocExpectation = %v, %v; want 0, true", got, ok)
	}
	if _, ok := (Event{Name: "U", Respond: terms}).DocExpectation(stats); ok {
		t.Fatal("undocumented event has a documented expectation")
	}
}

// TestCommittedFilesCanonical fails on any formatting drift in the committed
// platform files: parsing then canonicalizing must reproduce the bytes on
// disk exactly.
func TestCommittedFilesCanonical(t *testing.T) {
	for _, name := range BuiltinNames() {
		t.Run(name, func(t *testing.T) {
			raw, err := BuiltinBytes(name)
			if err != nil {
				t.Fatal(err)
			}
			p, err := Parse(raw)
			if err != nil {
				t.Fatal(err)
			}
			if p.Name != name {
				t.Fatalf("file %s.pdef defines %q", name, p.Name)
			}
			if got := p.Canonical(); !bytes.Equal(got, raw) {
				t.Fatalf("committed %s.pdef is not canonical", name)
			}
		})
	}
}

// TestBuiltinsAreThePlatformFiles: every platforms/*.pdef is a built-in,
// every built-in has a file, and each built-in's embedded text is its
// file's bytes — a file added without its embed line would be silently left
// out of every registry.
func TestBuiltinsAreThePlatformFiles(t *testing.T) {
	entries, err := os.ReadDir("platforms")
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, ent := range entries {
		if name, ok := strings.CutSuffix(ent.Name(), ".pdef"); ok {
			files = append(files, name)
		}
	}
	builtins := BuiltinNames()
	if !slices.Equal(files, slices.Sorted(slices.Values(builtins))) {
		t.Fatalf("platform files %v, built-ins %v", files, builtins)
	}
	for _, name := range builtins {
		raw, err := os.ReadFile(filepath.Join("platforms", name+".pdef"))
		if err != nil {
			t.Fatal(err)
		}
		if text, _ := builtinText(name); text != string(raw) {
			t.Errorf("built-in %s is not the text of platforms/%s.pdef", name, name)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]struct {
		text string
		want string // substring of the error
	}{
		"empty":              {"", "missing"},
		"bad header":         {"platdef v2\nplatform x\n", "first line must be"},
		"no platform":        {"platdef v1\nclass cpu\ncounters 2\n\nevent E\n respond cpu.instr=1\n", "platform name"},
		"bad class":          {"platdef v1\nplatform x-sim\nclass tpu\ncounters 2\n\nevent E\n respond cpu.instr=1\n", "class"},
		"zero counters":      {"platdef v1\nplatform x-sim\nclass cpu\ncounters 0\n\nevent E\n respond cpu.instr=1\n", "counters"},
		"huge counters":      {"platdef v1\nplatform x-sim\nclass cpu\ncounters 4096\n\nevent E\n respond cpu.instr=1\n", "counters"},
		"no events":          {"platdef v1\nplatform x-sim\nclass cpu\ncounters 2\n", "at least one event"},
		"duplicate event":    {"platdef v1\nplatform x-sim\nclass cpu\ncounters 2\n\nevent E\n respond cpu.instr=1\n\nevent E\n respond cpu.cycles=1\n", "duplicate"},
		"nan coeff":          {"platdef v1\nplatform x-sim\nclass cpu\ncounters 2\n\nevent E\n respond cpu.instr=NaN\n", "finite"},
		"inf noise":          {"platdef v1\nplatform x-sim\nclass cpu\ncounters 2\n\nevent E\n noise Inf 0\n respond cpu.instr=1\n", "finite"},
		"negative noise":     {"platdef v1\nplatform x-sim\nclass cpu\ncounters 2\n\nevent E\n noise -1 0\n respond cpu.instr=1\n", "noise"},
		"zero coeff":         {"platdef v1\nplatform x-sim\nclass cpu\ncounters 2\n\nevent E\n respond cpu.instr=0\n", "zero"},
		"dup term":           {"platdef v1\nplatform x-sim\nclass cpu\ncounters 2\n\nevent E\n respond cpu.instr=1 cpu.instr=2\n", "duplicate"},
		"dup directive":      {"platdef v1\nplatform x-sim\nclass cpu\nclass gpu\ncounters 2\n\nevent E\n respond cpu.instr=1\n", "duplicate"},
		"unknown directive":  {"platdef v1\nplatform x-sim\nclass cpu\ncounters 2\n\nevent E\n responds cpu.instr=1\n", "unknown"},
		"constraint unknown": {"platdef v1\nplatform x-sim\nclass cpu\ncounters 2\nfixed GHOST 0\n\nevent E\n respond cpu.instr=1\n", "unknown event"},
		"fixed too large":    {"platdef v1\nplatform x-sim\nclass cpu\ncounters 2\nfixed E 99\n\nevent E\n respond cpu.instr=1\n", "fixed"},
		"allowed dup slots":  {"platdef v1\nplatform x-sim\nclass cpu\ncounters 2\nallowed E 0,0\n\nevent E\n respond cpu.instr=1\n", "allowed"},
		// Parse checks each distinct key once; a bad one still names its
		// first term, as Validate does.
		"bad key on last event": {"platdef v1\nplatform x-sim\nclass cpu\ncounters 2\n\nevent E\n respond cpu.instr=1\n\nevent F\n respond cpu.x\x7f=2 cpu.instr=1\n",
			`event "F": respond term 1 has invalid key "cpu.x\x7f"`},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := Parse([]byte(tc.text))
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.want)
			}
			var perr *Error
			if !errors.As(err, &perr) {
				t.Fatalf("error is %T, want *platdef.Error: %v", err, err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestErrorLineNumbers(t *testing.T) {
	text := "platdef v1\nplatform x-sim\nclass cpu\ncounters 2\n\nevent E\n respond cpu.instr=bogus\n"
	_, err := Parse([]byte(text))
	var perr *Error
	if !errors.As(err, &perr) {
		t.Fatalf("error is %T: %v", err, err)
	}
	if perr.Line != 7 {
		t.Fatalf("error line = %d, want 7: %v", perr.Line, err)
	}
	if !strings.HasPrefix(err.Error(), "platdef: line 7:") {
		t.Fatalf("error format: %q", err.Error())
	}
}

func TestValidateSemantics(t *testing.T) {
	base := func() *Platform {
		return &Platform{
			Name: "v-sim", Class: "cpu", Counters: 4,
			Events: []Event{{Name: "E", Respond: []Term{{Key: "cpu.instr", Coeff: 1}}}},
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("base platform invalid: %v", err)
	}
	mutations := map[string]func(*Platform){
		"unsorted terms": func(p *Platform) {
			p.Events[0].Respond = []Term{{Key: "z", Coeff: 1}, {Key: "a", Coeff: 1}}
		},
		"doc on undocumented": func(p *Platform) {
			p.Events[0].Doc = []Term{{Key: "a", Coeff: 1}}
		},
		"nan abs noise":    func(p *Platform) { p.Events[0].AbsNoise = math.NaN() },
		"linebreak desc":   func(p *Platform) { p.Events[0].Desc = "two\nlines" },
		"padded desc":      func(p *Platform) { p.Events[0].Desc = " padded " },
		"empty event name": func(p *Platform) { p.Events[0].Name = "" },
		"control in name":  func(p *Platform) { p.Events[0].Name = "E\tF" },
		"fixed with allowed": func(p *Platform) {
			p.Constraints = []Constraint{{Event: "E", Fixed: 1, Allowed: []int{0}}}
		},
		"allowed out of range": func(p *Platform) {
			p.Constraints = []Constraint{{Event: "E", Fixed: -1, Allowed: []int{9}}}
		},
		"bad key on last event": func(p *Platform) {
			p.Events = append(p.Events, Event{Name: "F", Respond: []Term{{Key: "cpu.instr", Coeff: 1}, {Key: "cpu.x\x7f", Coeff: 2}}})
		},
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			p := base()
			mutate(p)
			if err := p.Validate(); err == nil {
				t.Fatal("mutation should invalidate the platform")
			}
		})
	}
}

func TestLoadDirDuplicateNames(t *testing.T) {
	dir := t.TempDir()
	def := "platdef v1\nplatform dup-sim\nclass cpu\ncounters 2\n\nevent E\n respond cpu.instr=1\n"
	for _, f := range []string{"a.pdef", "b.pdef"} {
		if err := writeFile(dir, f, def); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := LoadDir(dir); err == nil || !strings.Contains(err.Error(), "both define platform") {
		t.Fatalf("duplicate platform names not rejected: %v", err)
	}
}

// BenchmarkParseBuiltins parses every committed platform file in place:
// what every process pays once for its built-ins.
func BenchmarkParseBuiltins(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, f := range builtinFiles {
			if _, err := parse(f.text, false); err != nil {
				b.Fatal(err)
			}
		}
	}
}
