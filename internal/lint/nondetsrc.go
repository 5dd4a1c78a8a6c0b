package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// NonDetSrc keeps sources of nondeterminism out of every package whose
// output reaches result bytes. The QRCP pivot choice, the noise filter and
// the Workers=1-vs-N byte-identical guarantee all assume that the
// simulators and the collection layer (the noise draws included), the
// numeric core, the analysis engines, the renderers, the codecs and the
// seed hashes compute from their inputs alone: no wall-clock reads, no global
// (unseeded) randomness, and no select racing multiple ready channels (the
// runtime picks among ready cases uniformly at random). The distributed
// serving tier joins the scope: internal/store entries and internal/shard
// placement must be pure functions of their keys, or replicas and restarts
// would disagree about what is cached where. internal/server stays out: it
// times requests.
var NonDetSrc = &Analyzer{
	Name:  "nondetsrc",
	Doc:   "flags time.Now, unseeded math/rand and multi-case select inside the deterministic core packages",
	Scope: nonDetScope,
	Run:   runNonDetSrc,
}

// nonDetScopes are the package-path suffixes the analyzer guards. Matching
// by suffix lets testdata fixture packages mirror a guarded path.
var nonDetScopes = []string{
	"internal/analysis",
	"internal/branchsim",
	"internal/cachesim",
	"internal/canonjson",
	"internal/cat",
	"internal/catio",
	"internal/core",
	"internal/cpusim",
	"internal/fault",
	"internal/gpusim",
	"internal/machine",
	"internal/mat",
	"internal/matrix",
	"internal/par",
	"internal/platdef",
	"internal/report",
	"internal/seed",
	"internal/shard",
	"internal/similarity",
	"internal/store",
	"internal/suite",
	"internal/textplot",
	"internal/validate",
}

func nonDetScope(pkgPath string) bool {
	for _, s := range nonDetScopes {
		if strings.HasSuffix(pkgPath, s) {
			return true
		}
	}
	return false
}

// randConstructors are math/rand functions that build explicitly seeded
// generators and are therefore allowed; every other package-level math/rand
// function reads the global source.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

func runNonDetSrc(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				fn, ok := p.Info.Uses[n.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil {
					return true
				}
				switch fn.Pkg().Path() {
				case "time":
					if fn.Name() == "Now" {
						p.Reportf(n.Sel.Pos(), "time.Now in a deterministic core package; results must depend on inputs only")
					}
				case "math/rand", "math/rand/v2":
					if fn.Type().(*types.Signature).Recv() == nil && !randConstructors[fn.Name()] {
						p.Reportf(n.Sel.Pos(), "%s.%s uses the global rand source; construct an explicitly seeded *rand.Rand instead",
							fn.Pkg().Path(), fn.Name())
					}
				}
			case *ast.SelectStmt:
				ready := 0
				for _, clause := range n.Body.List {
					if c, ok := clause.(*ast.CommClause); ok && c.Comm != nil {
						ready++
					}
				}
				if ready >= 2 {
					p.Reportf(n.Select, "select with %d communication cases; the runtime chooses among ready cases at random", ready)
				}
			}
			return true
		})
	}
}
