package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// taxonomyPkgs are the packages that define the typed error taxonomy:
// table (ErrFull, *FullError), exec (*PanicError, *SuppressedError),
// shard (*DegradedError), and internal/fault (ErrInjected). Matching is by
// package-path base, so the fixture stubs of the analysistest harness
// exercise the same code paths.
var taxonomyPkgs = map[string]bool{
	"table": true,
	"exec":  true,
	"shard": true,
	"fault": true,
}

// isTaxonomyPkg matches taxonomy packages by path base, excluding the
// one standard-library collision (os/exec, whose *ExitError would
// otherwise masquerade as taxonomy).
func isTaxonomyPkg(p *types.Package) bool {
	return p != nil && taxonomyPkgs[PkgBase(p.Path())] && p.Path() != "os/exec"
}

// ErrTaxonomy enforces the PR 6 error-taxonomy contract end to end:
// sentinel errors from the taxonomy packages are matched with errors.Is
// (never == / !=), the concrete *XxxError structs with errors.As (never
// type asserts or type switches), and an error that is re-surfaced
// through fmt.Errorf or panic(fmt.Sprintf(...)) must keep the chain
// intact with %w. Each violation silently severs errors.Is(err,
// table.ErrFull) somewhere above it.
var ErrTaxonomy = &Analyzer{
	Name: "errtaxonomy",
	Doc:  "require errors.Is/errors.As for taxonomy errors and %w when re-surfacing them",
	Run:  runErrTaxonomy,
}

// isSentinelUse reports whether e is a use of a package-level error
// sentinel (ErrFull, ErrInjected, ...) from a taxonomy
// package.
func (p *Pass) isSentinelUse(e ast.Expr) (string, bool) {
	var id *ast.Ident
	switch e := e.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return "", false
	}
	v, ok := p.TypesInfo.Uses[id].(*types.Var)
	if !ok || !isTaxonomyPkg(v.Pkg()) {
		return "", false
	}
	if !strings.HasPrefix(v.Name(), "Err") || !implementsError(v.Type()) {
		return "", false
	}
	// Package-level sentinels only: locals named errX are not taxonomy.
	if v.Parent() != v.Pkg().Scope() {
		return "", false
	}
	return v.Name(), true
}

// isTaxonomyErrorType reports whether the type expression e denotes a
// (pointer to a) concrete error struct of the taxonomy: a named type
// whose name ends in "Error", declared in a taxonomy package, whose
// pointer implements error.
func (p *Pass) isTaxonomyErrorType(e ast.Expr) (string, bool) {
	tv, ok := p.TypesInfo.Types[e]
	if !ok || !tv.IsType() {
		return "", false
	}
	named := namedFrom(tv.Type)
	if named == nil {
		return "", false
	}
	obj := named.Obj()
	if obj == nil || !isTaxonomyPkg(obj.Pkg()) {
		return "", false
	}
	if !strings.HasSuffix(obj.Name(), "Error") {
		return "", false
	}
	if !implementsError(named) && !implementsError(types.NewPointer(named)) {
		return "", false
	}
	return obj.Name(), true
}

// isFmtCall reports whether call is fmt.<name>(...).
func (p *Pass) isFmtCall(call *ast.CallExpr, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := p.TypesInfo.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == "fmt"
}

// formatLacksW reports whether call's first argument is a string literal
// without a %w verb, along with whether the literal was inspectable.
func formatLacksW(call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return false // dynamic format: give the benefit of the doubt
	}
	return !strings.Contains(lit.Value, "%w")
}

// hasErrorArg reports whether any value argument (after the format)
// statically implements error.
func (p *Pass) hasErrorArg(call *ast.CallExpr) bool {
	for _, arg := range call.Args[1:] {
		if implementsError(p.typeOf(arg)) {
			return true
		}
	}
	return false
}

func runErrTaxonomy(pass *Pass) error {
	for _, f := range pass.sourceFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op != token.EQL && n.Op != token.NEQ {
					return true
				}
				for _, side := range []ast.Expr{n.X, n.Y} {
					if name, ok := pass.isSentinelUse(side); ok {
						pass.Reportf(n.Pos(), "%s compared with %s: use errors.Is — the sentinel is wrapped (FullError, DegradedError, %%w chains) and == misses every wrapped occurrence", name, n.Op)
					}
				}

			case *ast.TypeAssertExpr:
				if n.Type == nil {
					return true // the x.(type) of a type switch; handled below
				}
				if !isErrorInterface(pass.typeOf(n.X)) {
					return true
				}
				if name, ok := pass.isTaxonomyErrorType(n.Type); ok {
					pass.Reportf(n.Pos(), "type assert to *%s on an error: use errors.As — asserts miss the wrapped chain", name)
				}

			case *ast.TypeSwitchStmt:
				assert, ok := switchAssert(n)
				if !ok || !isErrorInterface(pass.typeOf(assert.X)) {
					return true
				}
				for _, c := range n.Body.List {
					cc, ok := c.(*ast.CaseClause)
					if !ok {
						continue
					}
					for _, te := range cc.List {
						if name, ok := pass.isTaxonomyErrorType(te); ok {
							pass.Reportf(te.Pos(), "type switch case *%s on an error: use errors.As — switches miss the wrapped chain", name)
						}
					}
				}

			case *ast.CallExpr:
				if pass.isFmtCall(n, "Errorf") && pass.hasErrorArg(n) && formatLacksW(n) {
					pass.Reportf(n.Pos(), "error re-surfaced through fmt.Errorf without %%w: the taxonomy chain (errors.Is/As through FullError, DegradedError, ...) is severed here")
				}
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "panic" && len(n.Args) == 1 {
					if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
						if inner, ok := n.Args[0].(*ast.CallExpr); ok && pass.isFmtCall(inner, "Sprintf") && pass.hasErrorArg(inner) {
							pass.Reportf(n.Pos(), "panic(fmt.Sprintf(..., err)) flattens the typed error to a string: panic a wrapped error (fmt.Errorf with %%w) so recover sites keep errors.Is/As")
						}
					}
				}
			}
			return true
		})
	}
	return nil
}

// switchAssert extracts the x.(type) assertion of a type switch.
func switchAssert(n *ast.TypeSwitchStmt) (*ast.TypeAssertExpr, bool) {
	switch s := n.Assign.(type) {
	case *ast.ExprStmt:
		a, ok := s.X.(*ast.TypeAssertExpr)
		return a, ok
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			a, ok := s.Rhs[0].(*ast.TypeAssertExpr)
			return a, ok
		}
	}
	return nil, false
}
