package lint

import (
	"go/types"
	"strings"
	"testing"
)

// testOnlyFindings loads every package of a synthetic module and runs
// testonly over all of them, returning the flagged names.
func testOnlyFindings(t *testing.T, files map[string]string) []string {
	t.Helper()
	loader, err := NewLoader(writeModule(t, files))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range RunWorkers(pkgs, pkgs, []*Analyzer{TestOnly}, 0) {
		name, _, _ := strings.Cut(d.Message, " ")
		names = append(names, name)
	}
	return names
}

// TestTestOnly runs one synthetic module per rule: an internal package p,
// the non-test code that uses it, and sometimes a test that does.
func TestTestOnly(t *testing.T) {
	const app = "cmd/app/main.go"
	cases := []struct {
		name  string
		files map[string]string
		want  []string
	}{{
		name: "exported function only a test calls",
		files: map[string]string{
			"internal/p/p.go": `package p

func Used() int { return helper() }

func helper() int { return 1 }

func Exported() int { return 2 }
`,
			"internal/p/p_test.go": `package p

import "testing"

func TestExported(t *testing.T) { _ = Exported() }
`,
			app: `package main

import "example.com/fixture/internal/p"

func main() { _ = p.Used() }
`,
		},
		want: []string{"Exported"},
	}, {
		name: "unexported function only a test calls",
		files: map[string]string{
			"internal/p/p.go": `package p

func Used() int { return 1 }

func unexported() int { return 3 }
`,
			"internal/p/p_test.go": `package p

import "testing"

func TestUnexported(t *testing.T) { _ = unexported() }
`,
			app: `package main

import "example.com/fixture/internal/p"

func main() { _ = p.Used() }
`,
		},
		want: []string{"unexported"},
	}, {
		name: "String reached only through %s on an any",
		files: map[string]string{
			"internal/p/p.go": `package p

import "fmt"

type Key struct{ N int }

func (k Key) String() string { return fmt.Sprint(k.N) }

func Render(v any) string { return fmt.Sprintf("%s", v) }
`,
			app: `package main

import "example.com/fixture/internal/p"

func main() { _ = p.Render(p.Key{N: 1}) }
`,
		},
	}, {
		name: "Error and Unwrap of an error type",
		files: map[string]string{
			"internal/p/p.go": `package p

type wrapErr struct{ err error }

func (e *wrapErr) Error() string { return "wrap: " + e.err.Error() }

func (e *wrapErr) Unwrap() error { return e.err }

func Wrap(err error) error { return &wrapErr{err} }
`,
			app: `package main

import "example.com/fixture/internal/p"

func main() { _ = p.Wrap(nil) }
`,
		},
	}, {
		// Len shares a name with q.Lener's method but not its signature.
		name: "method satisfying a module interface through a conversion",
		files: map[string]string{
			"internal/q/q.go": `package q

type Sizer interface{ Size() int }

type Lener interface{ Len() int }

func Total(s Sizer) int { return s.Size() }

func Count(l Lener) int { return l.Len() }
`,
			"internal/p/p.go": `package p

type Box struct{}

func (Box) Size() int { return 4 }

func (Box) Len() string { return "" }
`,
			app: `package main

import (
	"example.com/fixture/internal/p"
	"example.com/fixture/internal/q"
)

func main() { _ = q.Total(p.Box{}) + q.Count(nil) }
`,
		},
		want: []string{"(Box).Len"},
	}, {
		name: "functions only their own bodies call",
		files: map[string]string{
			"internal/p/p.go": `package p

func Fact(n int) int {
	if n < 2 {
		return 1
	}
	return n * Fact(n-1)
}

func countdown(n int) int {
	if n == 0 {
		return 0
	}
	return countdown(n - 1)
}

type Tree struct{ kids []Tree }

func (t Tree) size() int {
	n := 1
	for _, k := range t.kids {
		n += k.size()
	}
	return n
}
`,
			"internal/p/p_test.go": `package p

import "testing"

func TestCountdown(t *testing.T) { _ = countdown(3) + Tree{}.size() }
`,
			app: `package main

import "example.com/fixture/internal/p"

func main() { _ = p.Fact(3) }
`,
		},
		want: []string{"countdown", "(Tree).size"},
	}, {
		name: "method of a facade-aliased type",
		files: map[string]string{
			"internal/p/p.go": `package p

type Box struct{ n int }

func (b *Box) Scale(k int) { b.n *= k }
`,
			"fixture.go": `package fixture

import "example.com/fixture/internal/p"

type Box = p.Box
`,
		},
		want: []string{"(*Box).Scale"},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := testOnlyFindings(t, tc.files)
			if strings.Join(got, ",") != strings.Join(tc.want, ",") {
				t.Errorf("flagged %v, want %v", got, tc.want)
			}
		})
	}
}

// TestTestOnlyKeepsConfigString pins the case that matters on the real
// module: core.Config.String has no syntactic caller in the root module —
// the server reaches it through %s when it builds analysis keys — and
// deleting it would change every analysis cache key and store file name.
// cmd/loadgen, a module of its own, calls String too. The test reads uses
// from internal/ and the other commands only, so only the %s use can keep
// the method.
func TestTestOnlyKeepsConfigString(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	root, err := FindRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := SharedLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	var program []*Package
	var method types.Object
	for _, pkg := range pkgs {
		rel := strings.TrimPrefix(pkg.Path, loader.Module+"/")
		if (strings.HasPrefix(rel, "internal/") || strings.HasPrefix(rel, "cmd/")) && !strings.HasPrefix(rel, "cmd/loadgen") {
			program = append(program, pkg)
		}
		if pkg.Path == loader.Module+"/internal/core" {
			cfg := pkg.Types.Scope().Lookup("Config")
			method, _, _ = types.LookupFieldOrMethod(cfg.Type(), false, pkg.Types, "String")
		}
	}
	if method == nil {
		t.Fatal("core.Config.String not found")
	}
	at := loader.Fset.Position(method.Pos())
	for _, d := range RunWorkers(program, program, []*Analyzer{TestOnly}, 0) {
		if d.Pos.Filename == at.Filename && d.Pos.Line == at.Line {
			t.Fatalf("testonly flags core.Config.String: %s", d.Message)
		}
	}
}
