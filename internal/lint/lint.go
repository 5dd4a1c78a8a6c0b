// Package lint is a dependency-free static-analysis framework for this
// module, built entirely on the standard library's go/parser, go/ast and
// go/types (no golang.org/x/tools import — go.mod stays empty). It exists to
// move the pipeline's determinism and numeric-safety invariants from runtime
// checks (determinism_test.go, cmd/verify) into a compile-time gate: the
// runtime checks catch violations only on the inputs we happen to test,
// while the analyzers here refuse the source constructs that could violate
// them on any input.
//
// The nine project-specific analyzers and the invariants they protect:
//
//   - maporder: byte-identical reports require no map-iteration order leaking
//     into output or returned slices.
//   - floateq: raw ==/!= on floats hides tolerance decisions; all float
//     comparisons go through the approved helpers in internal/mat and
//     internal/core.
//   - nondetsrc: the numeric core (internal/core, internal/mat, internal/par,
//     internal/report) must not read wall-clock time, unseeded randomness, or
//     race multiple ready channels.
//   - errsink: a silently discarded error can hide a short write or a failed
//     solve, producing a plausible but wrong report.
//   - cachekey: every result-affecting field of a marked cache-key struct
//     must reach its canonical String()/Key() method, or carry a reasoned
//     lint:cachekey-exempt marker.
//   - goraw: fan-out happens through internal/par (or the server's sanctioned
//     pool), never via raw go statements or hand-rolled WaitGroups.
//   - lockbyvalue: sync primitives are never copied by value.
//   - seedcoord: random sources built under par.For/ForErr are seeded by
//     coordinates (parameters, struct fields), not shared state.
//   - testonly: every function and method of an internal/ package has a
//     non-test use somewhere in the module. It is the one module analyzer:
//     it reads uses from the whole program, not one package.
//
// See DESIGN.md §10 for the full rationale and TESTING.md for the allowlist
// workflow.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"

	"github.com/perfmetrics/eventlens/internal/par"
)

// Analyzer is one named check over a typechecked package.
type Analyzer struct {
	// Name is the identifier used in diagnostics and allowlist entries.
	Name string
	// Doc is a one-line description shown by `lint -list`.
	Doc string
	// Scope, when non-nil, restricts the analyzer to packages for which it
	// returns true (matched against the package import path). A nil Scope
	// means every package.
	Scope func(pkgPath string) bool
	// TestFiles opts the analyzer into test-augmented packages (loaded via
	// LoadDirTests): its findings inside _test.go files are kept. Analyzers
	// without it never see test code.
	TestFiles bool
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
	// RunModule, set instead of Run, makes a module analyzer: it runs once
	// per lint run over every in-scope package together, and sees the whole
	// program, so it can ask who anywhere in the module refers to a
	// declaration. Module analyzers leave TestFiles unset: they never see
	// test-augmented packages.
	RunModule func(*ModulePass)
}

// Pass carries one analyzer's view of one typechecked package.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset resolves token positions for every file in the package.
	Fset *token.FileSet
	// Files are the package's parsed source files, in file-name order.
	Files []*ast.File
	// Pkg is the typechecked package.
	Pkg *types.Package
	// Info holds the type-checker's expression types and identifier uses.
	Info *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ModulePass carries a module analyzer's view of one lint run. The embedded
// Pass supplies Analyzer, Fset and Reportf; its Files, Pkg and Info are unset.
type ModulePass struct {
	Pass
	// Targets are the in-scope non-test packages the run reports on.
	Targets []*Package
	// Program is every non-test package whose references count: the whole
	// module plus any fixture package the run names.
	Program []*Package
}

// Diagnostic is one finding.
type Diagnostic struct {
	// Pos locates the offending construct (full position, including column;
	// the driver renders file:line).
	Pos token.Position
	// Analyzer names the check that fired.
	Analyzer string
	// Message explains the finding and the invariant it would break.
	Message string
}

// All returns the default analyzer set, sorted by name. The slice is freshly
// allocated; callers may filter it.
func All() []*Analyzer {
	as := []*Analyzer{
		CacheKey,
		ErrSink,
		FloatEq,
		GoRaw,
		LockByValue,
		MapOrder,
		NonDetSrc,
		SeedCoord,
		TestOnly,
	}
	sort.Slice(as, func(i, j int) bool { return as[i].Name < as[j].Name })
	return as
}

// ByName returns the named subset of All, erroring on unknown names.
func ByName(names []string) ([]*Analyzer, error) {
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range names {
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// RunWorkers applies every analyzer to pkgs and returns the findings sorted
// by position, then analyzer name, then message — a deterministic order
// regardless of package or analyzer scheduling. program lists the non-test
// packages module analyzers read references from; it should hold the whole
// module, so that a finding does not depend on which packages a run names.
//
// Each (package, analyzer) pair, and each module analyzer, is an
// independent read-only pass over the shared typecheck results, fanned out
// through the module's own worker pool (workers <= 0 means GOMAXPROCS) and
// writing to its own diagnostic slice; assembly and sorting afterwards make
// the output order independent of scheduling. Test-augmented packages
// (Package.TestFiles) run only TestFiles analyzers, and keep only the
// findings located in _test.go files — the non-test files were already
// covered by the regular package.
func RunWorkers(pkgs, program []*Package, analyzers []*Analyzer, workers int) []Diagnostic {
	type task struct {
		pkgs []*Package // one package, or a module analyzer's targets
		a    *Analyzer
	}
	var tasks []task
	for _, a := range analyzers {
		var targets []*Package
		for _, pkg := range pkgs {
			if pkg.TestFiles && !a.TestFiles {
				continue
			}
			if a.Scope != nil && !a.Scope(pkg.Path) {
				continue
			}
			targets = append(targets, pkg)
		}
		if a.RunModule != nil {
			if len(targets) > 0 {
				tasks = append(tasks, task{pkgs: targets, a: a})
			}
			continue
		}
		for _, pkg := range targets {
			tasks = append(tasks, task{pkgs: []*Package{pkg}, a: a})
		}
	}
	results := make([][]Diagnostic, len(tasks))
	if err := par.ForErr(workers, len(tasks), func(i int) error {
		var out []Diagnostic
		t := tasks[i]
		if t.a.RunModule != nil {
			t.a.RunModule(&ModulePass{Pass: Pass{Analyzer: t.a, Fset: t.pkgs[0].Fset, diags: &out}, Targets: t.pkgs, Program: program})
			results[i] = out
			return nil
		}
		pkg := t.pkgs[0]
		t.a.Run(&Pass{
			Analyzer: t.a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			diags:    &out,
		})
		if pkg.TestFiles {
			kept := out[:0]
			for _, d := range out {
				if strings.HasSuffix(d.Pos.Filename, "_test.go") {
					kept = append(kept, d)
				}
			}
			out = kept
		}
		results[i] = out
		return nil
	}); err != nil {
		// The only possible error is a contained analyzer panic; re-raise it
		// so a broken analyzer cannot masquerade as a clean run.
		panic(err)
	}
	var diags []Diagnostic
	for _, r := range results {
		diags = append(diags, r...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	// A construct can be reached twice by one analyzer (seedcoord checks a
	// nested par body both as an entry and through its enclosing function);
	// identical findings collapse to one.
	return slices.Compact(diags)
}
