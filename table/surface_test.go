package table

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// exportedSurface is everything this package exports: its top-level names,
// and "Type.Method" for the exported methods of its exported types. The
// schemes themselves are unexported and reached through New's Table;
// anything added here is a deliberate widening of the one table contract.
var exportedSurface = []string{
	// Construction: Open and its options, or New for one raw scheme.
	"Open", "MustOpen", "Option", "WithScheme", "WithWorkload", "WithCapacity",
	"WithMaxLoadFactor", "WithHashFamily", "WithSeed", "WithPartitions",
	"DefaultMaxLoadFactor", "New", "Config", "Table", "BatchWidth",
	// The handle.
	"Handle", "Handle.Scheme", "Handle.HashName", "Handle.Name", "Handle.Partitions",
	"Handle.Engine", "Handle.DecisionPath", "Handle.Put", "Handle.Get", "Handle.Delete",
	"Handle.GetOrPut", "Handle.Upsert", "Handle.Len", "Handle.Capacity", "Handle.LoadFactor",
	"Handle.MemoryFootprint", "Handle.Range", "Handle.All", "Handle.Stats", "Handle.EngineStats",
	"Handle.GetBatch", "Handle.PutBatch", "Handle.GetOrPutBatch", "Handle.PutIfAbsentBatch",
	"Handle.UpsertBatch",
	// The scheme registry and Figure 8.
	"Scheme", "SchemeChained8", "SchemeChained24", "SchemeLP",
	"SchemeLPSoA", "SchemeQP", "SchemeRH", "SchemeCuckooH4",
	"Schemes", "KernelSchemes", "AllSchemes",
	"Workload", "Workload.Validate", "Recommend",
	// Errors and observability.
	"ErrFull", "FullError", "FullError.Error", "FullError.Unwrap", "Stats", "StatsOf",
}

// TestExportedSurface parses the package's non-test files and fails when
// the exported names differ from exportedSurface in either direction.
func TestExportedSurface(t *testing.T) {
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var got []string
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					got = append(got, d.Name.Name)
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
					got = append(got, id.Name+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						got = append(got, s.Name.Name)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							got = append(got, n.Name)
						}
					}
				}
			}
		}
	}
	got = slices.DeleteFunc(got, func(name string) bool {
		return !ast.IsExported(name[strings.LastIndex(name, ".")+1:])
	})
	for _, name := range got {
		if !slices.Contains(exportedSurface, name) {
			t.Errorf("%s is exported but not in exportedSurface: unexport it, or list it deliberately", name)
		}
	}
	for _, name := range exportedSurface {
		if !slices.Contains(got, name) {
			t.Errorf("exportedSurface lists %s, which the package no longer exports", name)
		}
	}
}
