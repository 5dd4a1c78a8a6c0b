package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// SeedCoord is a local dataflow check on the coordinate-seeding contract:
// the Workers=1-vs-N byte-identity proof rests on every random source
// constructed under a par.For/par.ForErr body being seeded purely by its
// coordinates. A source seeded from a loop-invariant local or package state
// gives every task the same stream (plausible data, silently wrong
// statistics) — and if the source is instead shared, a data race. The
// analyzer walks every function reachable from a par.For/ForErr body within
// the package and requires each seed expression to derive from the enclosing
// function's parameters (the coordinates flow in as arguments) or from
// struct fields (plans and configs carry per-task seeds), tracked through
// local assignment chains.
var SeedCoord = &Analyzer{
	Name: "seedcoord",
	Doc:  "checks random sources built under par.For/ForErr derive their seeds from parameters or struct fields (coordinates), not shared or loop-invariant state",
	Run:  runSeedCoord,
}

// seedConstructors are the seed-accepting source constructors:
// (package-path suffix, function name) pairs. The module's own splitmix
// generator, whose one constructor machine.newRNG every noise draw goes
// through, joins the stdlib ones; suffix matching lets fixture packages
// mirror it.
var seedConstructors = [][2]string{
	{"math/rand", "NewSource"},
	{"math/rand/v2", "NewPCG"},
	{"math/rand/v2", "NewChaCha8"},
	{"internal/machine", "newRNG"},
}

// isSeedConstructor reports whether fn constructs a random source directly
// from seed arguments.
func isSeedConstructor(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	for _, key := range seedConstructors {
		if fn.Name() == key[1] && (path == key[0] || strings.HasSuffix(modRelPath(path), key[0])) {
			return true
		}
	}
	return false
}

// isParFan reports whether fn is par.For or par.ForErr (matched by path
// suffix so fixtures can mirror internal/par).
func isParFan(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if fn.Name() != "For" && fn.Name() != "ForErr" {
		return false
	}
	return strings.HasSuffix(modRelPath(fn.Pkg().Path()), "internal/par")
}

func runSeedCoord(p *Pass) {
	decls := packageFuncDecls(p)

	// Phase 1: find every par fan-out body — function literals get their
	// captured enclosing parameters as coordinates too — and every package
	// function referenced as the body directly.
	type entry struct {
		body    *ast.BlockStmt
		tainted map[types.Object]bool
	}
	var entries []entry
	reached := make(map[*ast.FuncDecl]bool)
	for _, f := range p.Files {
		var fnStack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				fnStack = fnStack[:len(fnStack)-1]
				return true
			}
			if call, ok := n.(*ast.CallExpr); ok && len(call.Args) > 0 {
				if isParFan(calleeFunc(p.Info, call)) {
					body := call.Args[len(call.Args)-1]
					switch body := ast.Unparen(body).(type) {
					case *ast.FuncLit:
						tainted := make(map[types.Object]bool)
						paramObjs(p, body.Type, tainted)
						for _, outer := range fnStack {
							switch outer := outer.(type) {
							case *ast.FuncDecl:
								paramObjs(p, outer.Type, tainted)
								if outer.Recv != nil {
									fieldObjsFromRecv(p, outer.Recv, tainted)
								}
							case *ast.FuncLit:
								paramObjs(p, outer.Type, tainted)
							}
						}
						entries = append(entries, entry{body: body.Body, tainted: tainted})
					case *ast.Ident, *ast.SelectorExpr:
						if fn := calleeFuncExpr(p.Info, body); fn != nil {
							if fd, ok := decls[fn]; ok {
								reached[fd] = true
							}
						}
					}
				}
			}
			switch n.(type) {
			case *ast.FuncDecl, *ast.FuncLit:
				fnStack = append(fnStack, n)
			default:
				fnStack = append(fnStack, nil)
			}
			return true
		})
	}

	// Phase 2: expand reachability through same-package calls, from both the
	// literal bodies and the directly-referenced functions.
	var queue []*ast.FuncDecl
	collectCallees := func(body ast.Node) {
		ast.Inspect(body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if fn := calleeFunc(p.Info, call); fn != nil {
					if fd, ok := decls[fn]; ok && !reached[fd] {
						reached[fd] = true
						queue = append(queue, fd)
					}
				}
			}
			return true
		})
	}
	for _, e := range entries {
		collectCallees(e.body)
	}
	for fd := range reached {
		queue = append(queue, fd)
	}
	for len(queue) > 0 {
		fd := queue[0]
		queue = queue[1:]
		collectCallees(fd.Body)
	}

	// Phase 3: check every entry body and reached function. Reached
	// functions taint their own parameters and receiver: the coordinates
	// arrive as arguments, so deriving from parameters is deriving from
	// coordinates.
	for _, e := range entries {
		checkSeedBody(p, e.body, e.tainted)
	}
	sorted := make([]*ast.FuncDecl, 0, len(reached))
	for fd := range reached {
		sorted = append(sorted, fd)
	}
	// Map order does not matter: checkSeedBody only appends diagnostics,
	// which the runner sorts by position.
	for _, fd := range sorted {
		tainted := make(map[types.Object]bool)
		paramObjs(p, fd.Type, tainted)
		if fd.Recv != nil {
			fieldObjsFromRecv(p, fd.Recv, tainted)
		}
		checkSeedBody(p, fd.Body, tainted)
	}
}

// calleeFuncExpr resolves a function-valued expression (an identifier or
// method selector passed as the fan-out body) to its *types.Func.
func calleeFuncExpr(info *types.Info, e ast.Expr) *types.Func {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[e].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[e.Sel].(*types.Func)
		return fn
	}
	return nil
}

// paramObjs adds a function type's parameter objects to the tainted set.
func paramObjs(p *Pass, ftype *ast.FuncType, tainted map[types.Object]bool) {
	if ftype.Params == nil {
		return
	}
	for _, field := range ftype.Params.List {
		for _, name := range field.Names {
			if obj := p.Info.Defs[name]; obj != nil {
				tainted[obj] = true
			}
		}
	}
}

// fieldObjsFromRecv taints the receiver object so r.someSeedField counts as
// coordinate-derived (field selections are independently accepted anyway).
func fieldObjsFromRecv(p *Pass, recv *ast.FieldList, tainted map[types.Object]bool) {
	for _, field := range recv.List {
		for _, name := range field.Names {
			if obj := p.Info.Defs[name]; obj != nil {
				tainted[obj] = true
			}
		}
	}
}

// checkSeedBody propagates taint through local assignments to a fixpoint,
// then requires every seed-constructor argument to be coordinate-derived.
func checkSeedBody(p *Pass, body *ast.BlockStmt, tainted map[types.Object]bool) {
	// Parameters of nested function literals are function parameters too —
	// a par body nested inside a reached function carries its coordinate in
	// its own parameter list.
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			paramObjs(p, lit.Type, tainted)
		}
		return true
	})
	// Fixpoint taint propagation over local assignment chains: a local
	// assigned from coordinate-derived material is itself coordinate-derived.
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					id, ok := ast.Unparen(lhs).(*ast.Ident)
					if !ok {
						continue
					}
					obj := p.Info.Defs[id]
					if obj == nil {
						obj = p.Info.Uses[id]
					}
					if obj == nil || tainted[obj] {
						continue
					}
					rhs := n.Rhs[0]
					if len(n.Rhs) == len(n.Lhs) {
						rhs = n.Rhs[i]
					}
					if coordDerived(p, rhs, tainted) {
						tainted[obj] = true
						changed = true
					}
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					obj := p.Info.Defs[name]
					if obj == nil || tainted[obj] || len(n.Values) == 0 {
						continue
					}
					v := n.Values[0]
					if len(n.Values) == len(n.Names) {
						v = n.Values[i]
					}
					if coordDerived(p, v, tainted) {
						tainted[obj] = true
						changed = true
					}
				}
			}
			return true
		})
	}

	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isSeedConstructor(calleeFunc(p.Info, call)) {
			return true
		}
		for _, arg := range call.Args {
			if coordDerived(p, arg, tainted) {
				return true
			}
		}
		fn := calleeFunc(p.Info, call)
		p.Reportf(call.Lparen, "%s.%s under par.For/ForErr is not coordinate-seeded: derive the seed from a parameter or struct field so every task gets its own stream",
			fn.Pkg().Name(), fn.Name())
		return true
	})
}

// coordDerived reports whether an expression's value depends on a tainted
// identifier or a struct-field selection — the two sanctioned coordinate
// sources.
func coordDerived(p *Pass, e ast.Expr, tainted map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.Ident:
			if obj := p.Info.Uses[n]; obj != nil && tainted[obj] {
				found = true
				return false
			}
		case *ast.SelectorExpr:
			if sel, ok := p.Info.Selections[n]; ok && sel.Kind() == types.FieldVal {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
