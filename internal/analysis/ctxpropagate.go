package analysis

import (
	"go/ast"
	"go/types"
)

// CtxPropagate enforces the cancellation contract: a function that
// accepts a Config carrying a Ctx field (pipe.Config, bench's
// ChaosConfig, ...) must thread that context into
// the exec.Config values it builds. An exec.Config composite literal
// without a Ctx element inside such a function silently launches
// uncancellable work — the caller's context is accepted and then
// dropped on the floor.
var CtxPropagate = &Analyzer{
	Name: "ctxpropagate",
	Doc:  "exec.Config built inside a Config-carrying function must thread the Config's Ctx",
	Run:  runCtxPropagate,
}

// hasCtxField reports whether the (possibly pointer) named struct type t
// has a field Ctx of type context.Context.
func hasCtxField(t types.Type) bool {
	named := namedFrom(t)
	if named == nil {
		return false
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() == "Ctx" && typeIs(f.Type(), "context", "Context") {
			return true
		}
	}
	return false
}

// ctxConfigParam returns the name of a parameter whose type is a named
// struct called Config (or a *Config, or a Config-suffixed config type
// like ChaosConfig) carrying a Ctx field — excluding exec.Config itself,
// which is the destination, not the source.
func (p *Pass) ctxConfigParam(fd *ast.FuncDecl) (string, bool) {
	if fd.Type.Params == nil {
		return "", false
	}
	for _, field := range fd.Type.Params.List {
		t := p.typeOf(field.Type)
		if t == nil || typeIs(t, "exec", "Config") || !hasCtxField(t) {
			continue
		}
		named := namedFrom(t)
		if named == nil || !isConfigName(named.Obj().Name()) {
			continue
		}
		if len(field.Names) > 0 {
			return field.Names[0].Name, true
		}
		return "_", true
	}
	return "", false
}

// isConfigName matches Config and the FooConfig naming convention.
func isConfigName(name string) bool {
	const suffix = "Config"
	return len(name) >= len(suffix) && name[len(name)-len(suffix):] == suffix
}

func runCtxPropagate(pass *Pass) error {
	for _, f := range pass.sourceFiles() {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			cfgName, ok := pass.ctxConfigParam(fd)
			if !ok {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				cl, ok := n.(*ast.CompositeLit)
				if !ok {
					return true
				}
				tv, ok := pass.TypesInfo.Types[cl]
				if !ok || !typeIs(tv.Type, "exec", "Config") {
					return true
				}
				for _, elt := range cl.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						return true // positional literal: every field, Ctx included, is set
					}
					if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Ctx" {
						return true
					}
				}
				pass.Reportf(cl.Pos(), "exec.Config built without Ctx while %s carries one: thread %s.Ctx so the caller's cancellation reaches the pool", cfgName, cfgName)
				return true
			})
		}
	}
	return nil
}
