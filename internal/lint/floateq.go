package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// FloatEq protects the numeric-safety invariant that every floating-point
// comparison is a deliberate tolerance decision. Raw ==/!= between floats is
// almost always a latent bug — rounding residue from a different but
// mathematically equal evaluation order flips the result — so comparisons
// must go through the approved helpers in internal/mat and internal/core,
// whose bodies are the only sanctioned homes for the raw operators. Test
// files are exempt (the loader does not even parse them).
var FloatEq = &Analyzer{
	Name: "floateq",
	Doc:  "flags ==/!= between floating-point operands outside test files and the approved tolerance helpers",
	Run:  runFloatEq,
}

// floatEqApproved lists the functions (module-relative package path dot
// function name) whose bodies may use raw float equality: the tolerance and
// exactness helpers themselves. Everything else adopts them.
var floatEqApproved = map[string]bool{
	"internal/core.ExactEq":    true,
	"internal/core.IsZero":     true,
	"internal/core.IsIntegral": true,
	"internal/mat.ExactEq":     true,
	"internal/mat.IsZero":      true,
}

func runFloatEq(p *Pass) {
	pkgRel := modRelPath(p.Pkg.Path())
	for _, f := range p.Files {
		if strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		eachFunc(f, func(decl *ast.FuncDecl, _ *ast.FuncType, body *ast.BlockStmt) {
			if decl != nil && floatEqApproved[pkgRel+"."+decl.Name.Name] {
				return
			}
			inspectShallow(body, func(n ast.Node) bool {
				bin, ok := n.(*ast.BinaryExpr)
				if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
					return true
				}
				if !isFloat(p.Info.TypeOf(bin.X)) && !isFloat(p.Info.TypeOf(bin.Y)) {
					return true
				}
				// Two constants fold at compile time; x != x is the NaN idiom.
				// Both are deterministic by construction.
				xc := p.Info.Types[bin.X].Value != nil
				yc := p.Info.Types[bin.Y].Value != nil
				if xc && yc {
					return true
				}
				if types.ExprString(bin.X) == types.ExprString(bin.Y) {
					return true
				}
				p.Reportf(bin.OpPos, "floating-point %s between %s and %s; use a tolerance helper (core.ExactEq, core.IsIntegral)",
					bin.Op, types.ExprString(bin.X), types.ExprString(bin.Y))
				return true
			})
		})
	}
}
