package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// calleeFunc resolves the *types.Func a call invokes, or nil for calls
// through function values, conversions and builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

// isFloat reports whether t's underlying type is a floating-point type.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isErrorType reports whether t is the predeclared error interface.
var errorType = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, errorType)
}

// modRelPath trims a package import path down to its module-relative tail
// starting at the first "internal/" segment, so scope and approval lists
// match both the real packages and testdata fixture packages that mirror
// their layout.
func modRelPath(pkgPath string) string {
	if idx := strings.Index(pkgPath, "internal/"); idx >= 0 {
		return pkgPath[idx:]
	}
	return pkgPath
}

// eachFunc visits every function body in the file: declarations and
// literals. Bodies are visited once each; the visitor must not assume outer
// bodies exclude nested literals.
func eachFunc(f *ast.File, visit func(decl *ast.FuncDecl, ftype *ast.FuncType, body *ast.BlockStmt)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				visit(fn, fn.Type, fn.Body)
			}
		case *ast.FuncLit:
			visit(nil, fn.Type, fn.Body)
		}
		return true
	})
}

// inspectShallow walks n but does not descend into function literals — used
// when a property belongs to exactly one function body.
func inspectShallow(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return fn(n)
	})
}
