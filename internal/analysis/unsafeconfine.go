package analysis

import (
	"path/filepath"
	"strconv"
)

// UnsafeConfine confines `unsafe` to one file: the probe kernel's column
// view (table/policy.go, where both slot layouts alias one []uint64 view
// over their backing arrays). That aliasing is checkptr- and
// ASan-exercised by the sanitizer CI job plus FuzzColumnView and
// FuzzProbeKernel; a new unsafe import anywhere else would dodge that
// coverage, so it is refused outright.
var UnsafeConfine = &Analyzer{
	Name: "unsafeconfine",
	Doc:  "allow the unsafe import only in table/policy.go",
	Run:  runUnsafeConfine,
}

// unsafeAllowed reports whether the file may import unsafe.
func unsafeAllowed(pkgBase, fileBase string) bool {
	return pkgBase == "table" && fileBase == "policy.go"
}

func runUnsafeConfine(pass *Pass) error {
	base := PkgBase(pass.Pkg.Path())
	for _, f := range pass.sourceFiles() {
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil || p != "unsafe" {
				continue
			}
			file := filepath.Base(pass.Fset.Position(imp.Pos()).Filename)
			if !unsafeAllowed(base, file) {
				pass.Reportf(imp.Pos(), "unsafe imported outside the allowlist (table/policy.go): unsafe aliasing must stay where the checkptr/ASan jobs and FuzzColumnView exercise it")
			}
		}
	}
	return nil
}
