package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// allowedSurface is everything of this module the benchmark may name: the
// surface the ROADMAP keeps. Later changes delete or unexport the rest
// (table.New*, Map, Batcher, the one-shot joins, partition, workload, bench,
// obs hooks, internal/*) and may not edit this directory, so a dependency
// on anything else would break the benchmark under them. Methods of the
// listed types are not restricted here.
var allowedSurface = map[string][]string{
	"repro/hashfn":   {"MultFamily", "HashBatch"},
	"repro/dist":     {"New", "Sparse", "Shuffled"},
	"repro/table":    {"Open", "Handle", "Option", "Scheme", "SchemeRH", "SchemeChained24", "SchemeCuckooH4", "WithScheme", "WithCapacity", "WithMaxLoadFactor", "WithSeed", "WithPartitions", "DefaultMaxLoadFactor"},
	"repro/exec":     {"NewPool", "Config", "RunTasks", "Locals"},
	"repro/pipe":     {"Config", "GroupConfig", "JoinConfig", "Stream", "FromRelation", "FromColumns", "FromHandle", "HashJoin"},
	"repro/agg":      {"GroupBy", "NewGroupBy", "Config"},
	"repro/join":     {"Relation", "Row", "CapacityFor"},
	"repro/decision": {"ShardsFor"},
}

// TestImportsStayOnKeptSurface parses every file of the package and fails
// on an import outside the standard library and allowedSurface, and on a
// package-level name of an allowed package that is not listed.
func TestImportsStayOnKeptSurface(t *testing.T) {
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range paths {
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		local := map[string]map[string]bool{} // the file's name for a package → its allowed names
		for _, imp := range file.Imports {
			importPath, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			first, _, _ := strings.Cut(importPath, "/")
			if first != "repro" {
				if strings.Contains(first, ".") {
					t.Errorf("%s imports %s: only the standard library and this module are available", path, importPath)
				}
				continue
			}
			names, ok := allowedSurface[importPath]
			if !ok {
				t.Errorf("%s imports %s, which is outside the surface the benchmark may depend on", path, importPath)
				continue
			}
			name := importPath[strings.LastIndex(importPath, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			local[name] = map[string]bool{}
			for _, n := range names {
				local[name][n] = true
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			// An unresolved identifier (Obj == nil) that matches an
			// import's name is the package, not a local variable.
			if x, ok := sel.X.(*ast.Ident); ok && x.Obj == nil {
				if names, ok := local[x.Name]; ok && !names[sel.Sel.Name] {
					t.Errorf("%s: %s.%s is outside the surface the benchmark may depend on", fset.Position(sel.Pos()), x.Name, sel.Sel.Name)
				}
			}
			return true
		})
	}
}
