package repro_test

// TestExamplesHaveOutput keeps every Example a check: go test compiles an
// Example that has no output comment but never runs it, so losing its
// "// Output:" line would turn the answers it prints into unchecked text,
// and nothing would say so.

import (
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"path/filepath"
	"testing"
)

func TestExamplesHaveOutput(t *testing.T) {
	found := 0
	for _, dir := range packageDirs(t, []string{"./..."}) {
		paths, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		fset := token.NewFileSet()
		var files []*ast.File
		for _, path := range paths {
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		for _, ex := range doc.Examples(files...) {
			found++
			if ex.Output == "" && !ex.EmptyOutput {
				t.Errorf("%s: Example%s has no output comment, so go test never runs it",
					fset.Position(ex.Code.Pos()), ex.Name)
			}
		}
	}
	if found == 0 {
		t.Fatal("found no Example to check")
	}
}
