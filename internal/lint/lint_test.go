package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule materializes a synthetic module in a temp dir: files maps
// module-relative paths to source text. A go.mod is added automatically.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module example.com/fixture\n\ngo 1.23\n"
	for rel, src := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// analyze loads one synthetic package and runs the given analyzers over it.
// relDir chooses the package's module-relative directory, so tests can place
// code inside (or outside) an analyzer's scope.
func analyze(t *testing.T, relDir, src string, as ...*Analyzer) []Diagnostic {
	t.Helper()
	root := writeModule(t, map[string]string{relDir + "/f.go": src})
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(filepath.Join(root, filepath.FromSlash(relDir)))
	if err != nil {
		t.Fatal(err)
	}
	return RunWorkers([]*Package{pkg}, []*Package{pkg}, as, 0)
}

// TestPositionAccuracy pins the exact line and column each analyzer reports
// on a synthetic file whose offending tokens sit at known positions.
func TestPositionAccuracy(t *testing.T) {
	src := `package p

import "fmt"

func Bad(m map[string]int, a, b float64) bool {
	for k := range m {
		fmt.Println(k)
	}
	return a == b
}
`
	diags := RunWorkers(nil, nil, nil, 0)
	if len(diags) != 0 {
		t.Fatalf("empty run produced %d diagnostics", len(diags))
	}
	diags = analyze(t, "p", src, MapOrder, FloatEq)
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2: %v", len(diags), diags)
	}
	// Run sorts by position: the range on line 6 precedes the == on line 9.
	if d := diags[0]; d.Analyzer != "maporder" || d.Pos.Line != 6 || d.Pos.Column != 2 {
		t.Errorf("maporder at %d:%d (%s), want 6:2", d.Pos.Line, d.Pos.Column, d.Analyzer)
	}
	if d := diags[1]; d.Analyzer != "floateq" || d.Pos.Line != 9 || d.Pos.Column != 11 {
		t.Errorf("floateq at %d:%d (%s), want 9:11", d.Pos.Line, d.Pos.Column, d.Analyzer)
	}
	for _, d := range diags {
		if !strings.HasSuffix(d.Pos.Filename, filepath.FromSlash("p/f.go")) {
			t.Errorf("diagnostic filename %q does not point at p/f.go", d.Pos.Filename)
		}
	}
}

func TestByName(t *testing.T) {
	as, err := ByName([]string{"floateq", "errsink"})
	if err != nil || len(as) != 2 || as[0].Name != "floateq" || as[1].Name != "errsink" {
		t.Errorf("ByName = %v, %v", as, err)
	}
	if _, err := ByName([]string{"nosuch"}); err == nil {
		t.Error("ByName(nosuch) did not fail")
	}
}

func TestAllNamesSortedUnique(t *testing.T) {
	as := All()
	for i := 1; i < len(as); i++ {
		if as[i-1].Name >= as[i].Name {
			t.Errorf("All() not sorted/unique at %q >= %q", as[i-1].Name, as[i].Name)
		}
	}
}
