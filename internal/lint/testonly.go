package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
)

// TestOnly keeps code only tests run out of the build. Every function and
// method declared in a non-test file of an internal/ package needs a
// non-test use somewhere in the module — cmd/, examples/, the root facade or
// another internal package. A use is either a reference from outside the
// function's own body, so a function that only calls itself is flagged, or,
// for a method, a name and signature that an interface of the program or of
// its standard-library imports declares (fmt.Stringer reaches String through
// %s with no call in sight), including the Unwrap, Is and As methods package
// errors probes. Re-exporting a type by alias uses none of its methods.
// References come from the whole program, so a finding does not depend on
// which packages a run names.
var TestOnly = &Analyzer{
	Name:      "testonly",
	Doc:       "flags functions and methods of internal/ packages that no non-test code of the module refers to",
	Scope:     isInternal,
	RunModule: runTestOnly,
}

// isInternal reports whether an import path has an internal element.
func isInternal(pkgPath string) bool {
	return strings.Contains("/"+pkgPath+"/", "/internal/")
}

// errorsProbes declares the interfaces package errors asserts inside its
// function bodies, where no package scope shows them.
const errorsProbes = `package probes

type (
	wrapper      interface{ Unwrap() error }
	multiWrapper interface{ Unwrap() []error }
	iser         interface{ Is(error) bool }
	aser         interface{ As(any) bool }
)`

func runTestOnly(p *ModulePass) {
	used := make(map[types.Object]bool)
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := make(map[*types.Package]bool)
	var scan func(pkg *types.Package)
	scan = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			}
		}
		for _, imp := range pkg.Imports() {
			scan(imp)
		}
	}
	// Each function's own body: a reference from inside it is recursion, so
	// a function only it calls is still unused.
	bodies := make(map[types.Object][2]token.Pos)
	for _, pkg := range p.Program {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					bodies[pkg.Info.Defs[fd.Name]] = [2]token.Pos{fd.Body.Pos(), fd.Body.End()}
				}
			}
		}
	}
	for _, pkg := range p.Program {
		scan(pkg.Types)
		for id, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				body, ok := bodies[fn.Origin()]
				if !ok || id.Pos() < body[0] || id.Pos() >= body[1] {
					used[fn.Origin()] = true
				}
			}
		}
		// Interface literals, including those declared inside functions.
		for _, tv := range pkg.Info.Types {
			if it, ok := tv.Type.(*types.Interface); ok && tv.IsType() {
				ifaces = append(ifaces, it)
			}
		}
	}
	// A constant source: parsing and checking it cannot fail.
	fset := token.NewFileSet()
	f, _ := parser.ParseFile(fset, "probes.go", errorsProbes, 0)
	probes, _ := new(types.Config).Check("probes", fset, []*ast.File{f}, nil)
	scan(probes)

	// Interface method Id (the name, qualified by package when unexported)
	// → the signatures declared under it.
	declared := make(map[string][]types.Type)
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			declared[m.Id()] = append(declared[m.Id()], m.Type())
		}
	}
	implements := func(fn *types.Func) bool {
		for _, sig := range declared[fn.Id()] {
			if types.Identical(fn.Type(), sig) { // receivers are ignored
				return true
			}
		}
		return false
	}

	for _, pkg := range p.Targets {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || (fd.Recv == nil && fd.Name.Name == "init") || fd.Name.Name == "_" {
					continue
				}
				fn := pkg.Info.Defs[fd.Name].(*types.Func)
				if used[fn] || (fd.Recv != nil && implements(fn)) {
					continue
				}
				name := fn.Name()
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					name = "(" + types.TypeString(recv.Type(), types.RelativeTo(pkg.Types)) + ")." + name
				}
				p.Reportf(fd.Name.Pos(), "%s has no reference outside tests; delete it, move it into a _test.go file, or justify a deliberate oracle in lint.allow", name)
			}
		}
	}
}
