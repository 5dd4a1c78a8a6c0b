package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, typechecked package of the module.
type Package struct {
	// Path is the package import path.
	Path string
	// Dir is the absolute directory the package was loaded from.
	Dir string
	// Fset is the loader-wide file set (shared across packages).
	Fset *token.FileSet
	// Files are the parsed non-test source files, in file-name order.
	Files []*ast.File
	// Types is the typechecked package.
	Types *types.Package
	// Info holds expression types, identifier definitions/uses and selections.
	Info *types.Info
	// TestFiles marks a test-augmented package (LoadDirTests): its Files
	// include _test.go sources, only TestFiles analyzers run on it, and only
	// diagnostics inside _test.go files are kept.
	TestFiles bool
}

// Loader parses and typechecks packages of a single module without any
// go/packages dependency. Standard-library imports are typechecked from
// GOROOT source via go/importer's "source" compiler; module-internal imports
// are resolved by mapping the import path onto the module directory and
// loading recursively. External (non-stdlib, non-module) dependencies are
// rejected — the module's go.mod declares none, and the loader keeping that
// property is itself a guarantee.
type Loader struct {
	// Root is the absolute module root (the directory holding go.mod).
	Root string
	// Module is the module path declared in go.mod.
	Module string
	// Fset accumulates positions for every parsed file.
	Fset *token.FileSet

	std      types.Importer
	pkgs     map[string]*Package // by import path
	testPkgs map[string][]*Package
	loading  map[string]bool // cycle guard
}

// NewLoader builds a loader for the module rooted at root (the directory
// containing go.mod).
func NewLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Root:     abs,
		Module:   modPath,
		Fset:     fset,
		std:      importer.ForCompiler(fset, "source", nil),
		pkgs:     make(map[string]*Package),
		testPkgs: make(map[string][]*Package),
		loading:  make(map[string]bool),
	}, nil
}

// sharedLoaders memoizes loaders per module root for the lifetime of the
// process: stdlib and module packages are source-typechecked once and shared
// across every subsequent run (the lint driver's own tests run the command
// in-process many times; without sharing, each run re-typechecks the entire
// stdlib import closure). Source files are immutable for the duration of a
// lint process, so the cache cannot go stale. Loading through a shared
// loader is serialized by sharedMu; the loaded packages themselves are
// read-only and safe for the concurrent analyzer passes.
var (
	sharedMu      sync.Mutex
	sharedLoaders = make(map[string]*Loader)
)

// SharedLoader returns the process-wide cached loader for a module root,
// creating it on first use.
func SharedLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if l, ok := sharedLoaders[abs]; ok {
		return l, nil
	}
	l, err := NewLoader(abs)
	if err != nil {
		return nil, err
	}
	sharedLoaders[abs] = l
	return l, nil
}

// FindRoot walks upward from dir to the nearest directory containing go.mod.
func FindRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod found in or above %s", abs)
		}
		d = parent
	}
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			mod := strings.TrimSpace(strings.Trim(strings.TrimSpace(rest), `"`))
			if mod != "" {
				return mod, nil
			}
		}
	}
	return "", fmt.Errorf("%s: no module directive", gomod)
}

// LoadAll loads every package directory under the module root, in import-path
// order, skipping testdata, vendor, hidden and underscore-prefixed
// directories.
func (l *Loader) LoadAll() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.Root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != l.Root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dirs = append(dirs, filepath.Dir(path))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	dirs = slices.Compact(dirs)
	pkgs := make([]*Package, 0, len(dirs))
	for _, dir := range dirs {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// LoadDir parses and typechecks the package in one directory, which must lie
// inside the module root (testdata fixture directories are allowed — that is
// how cmd/lint's golden tests load their seeded-violation packages).
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	path, err := l.importPath(abs)
	if err != nil {
		return nil, err
	}
	return l.load(path, abs)
}

// importPath maps an absolute directory inside the module onto its import
// path.
func (l *Loader) importPath(dir string) (string, error) {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		return "", fmt.Errorf("directory %s is outside module root %s", dir, l.Root)
	}
	if rel == "." {
		return l.Module, nil
	}
	return l.Module + "/" + filepath.ToSlash(rel), nil
}

// load parses and typechecks one package, memoized by import path.
func (l *Loader) load(path, dir string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		names = append(names, name)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no buildable Go files in %s", dir)
	}
	sort.Strings(names)

	var files []*ast.File
	pkgName := ""
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if pkgName == "" {
			pkgName = f.Name.Name
		} else if f.Name.Name != pkgName {
			return nil, fmt.Errorf("%s: mixed packages %s and %s in one directory", dir, pkgName, f.Name.Name)
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l, FakeImportC: true}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}

// LoadDirTests loads the directory's test code: an in-package test-augmented
// package (the regular sources plus same-package _test.go files, typechecked
// together), and, when present, the external foo_test package. Both come
// back flagged TestFiles, are memoized per directory, and are kept out of
// the import-resolution cache so other packages still import the non-test
// view. A directory with no test files yields an empty slice.
func (l *Loader) LoadDirTests(dir string) ([]*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if pkgs, ok := l.testPkgs[abs]; ok {
		return pkgs, nil
	}
	path, err := l.importPath(abs)
	if err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(abs)
	if err != nil {
		return nil, err
	}
	var testNames, regularNames []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		if strings.HasSuffix(name, "_test.go") {
			testNames = append(testNames, name)
		} else {
			regularNames = append(regularNames, name)
		}
	}
	if len(testNames) == 0 {
		l.testPkgs[abs] = nil
		return nil, nil
	}
	sort.Strings(testNames)
	sort.Strings(regularNames)

	// Parse test files and split them by package clause: in-package tests
	// merge with the regular sources; foo_test files form their own package.
	var inPkg, external []*ast.File
	basePkg := ""
	for _, name := range testNames {
		f, err := parser.ParseFile(l.Fset, filepath.Join(abs, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if strings.HasSuffix(f.Name.Name, "_test") {
			external = append(external, f)
		} else {
			inPkg = append(inPkg, f)
			basePkg = f.Name.Name
		}
	}

	check := func(path string, files []*ast.File) (*Package, error) {
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		conf := types.Config{Importer: l, FakeImportC: true}
		tpkg, err := conf.Check(path, l.Fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("typecheck %s: %w", path, err)
		}
		return &Package{Path: path, Dir: abs, Fset: l.Fset, Files: files, Types: tpkg, Info: info, TestFiles: true}, nil
	}

	var pkgs []*Package
	if len(inPkg) > 0 {
		files := append([]*ast.File(nil), inPkg...)
		for _, name := range regularNames {
			f, err := parser.ParseFile(l.Fset, filepath.Join(abs, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			if f.Name.Name != basePkg {
				return nil, fmt.Errorf("%s: test package %s does not match package %s", abs, basePkg, f.Name.Name)
			}
			files = append(files, f)
		}
		pkg, err := check(path, files)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	if len(external) > 0 {
		pkg, err := check(path+"_test", external)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	l.testPkgs[abs] = pkgs
	return pkgs, nil
}

// Import implements types.Importer, routing module-internal paths through
// the loader and everything else through the GOROOT source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.Module), "/")
		pkg, err := l.load(path, filepath.Join(l.Root, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	if first, _, _ := strings.Cut(path, "/"); strings.Contains(first, ".") {
		return nil, fmt.Errorf("external dependency %s is not supported (module declares none)", path)
	}
	return l.std.Import(path)
}
