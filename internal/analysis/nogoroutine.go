package analysis

import (
	"go/ast"
	"go/types"
)

// concurrencyOwners are the packages allowed to own raw concurrency
// primitives. Everything above them must express parallelism through
// exec's pool (or shard's engine), so fan-out stays bounded, errors flow
// through the first-error convention, and panics are contained.
var concurrencyOwners = map[string]bool{
	"exec":  true,
	"shard": true,
}

// NoGoroutine enforces the PR 5 consolidation invariant: no `go`
// statements, no sync.WaitGroup, and no raw channel construction outside
// the exec and shard packages. A bare goroutine bypasses bounded
// fan-out, first-error propagation, and panic containment all at once; a
// WaitGroup or a hand-made channel pool is the tell that one is coming.
//
// iter.Pull and iter.Pull2 are flagged in every package, the owners
// included: each call starts a goroutine no go statement shows, parked
// inside the sequence until someone calls stop — shard's migration cursor
// was one, and leaked it (and the table it walked) with every engine
// dropped mid-resize. A resumable position does the same job.
var NoGoroutine = &Analyzer{
	Name: "nogoroutine",
	Doc:  "forbid go statements, sync.WaitGroup, and raw channel construction outside exec and shard, and iter.Pull everywhere",
	Run:  runNoGoroutine,
}

func runNoGoroutine(pass *Pass) error {
	owner := concurrencyOwners[PkgBase(pass.Pkg.Path())]
	for _, f := range pass.sourceFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if fn, ok := pass.TypesInfo.Uses[id].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "iter" && (fn.Name() == "Pull" || fn.Name() == "Pull2") {
					pass.Reportf(id.Pos(), "iter.%s starts a hidden goroutine that lives until stop is called: keep a resumable position instead", fn.Name())
				}
			}
			if owner {
				return true
			}
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "go statement outside exec/shard: submit the work to an exec.Pool (bounded fan-out, first-error, panic containment) instead")
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "make" && len(n.Args) > 0 {
					if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
						if tv, ok := pass.TypesInfo.Types[n.Args[0]]; ok && tv.IsType() {
							if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
								pass.Reportf(n.Pos(), "raw channel construction outside exec/shard: hand-rolled worker pools belong in exec")
							}
						}
					}
				}
			case ast.Expr:
				if tv, ok := pass.TypesInfo.Types[n]; ok && tv.IsType() && typeIs(tv.Type, "sync", "WaitGroup") {
					pass.Reportf(n.Pos(), "sync.WaitGroup outside exec/shard: use exec.Pool's scheduling and Close instead of hand-rolled joins")
					return false // one report per WaitGroup type expression
				}
			}
			return true
		})
	}
	return nil
}
