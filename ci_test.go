package repro_test

// TestCIFiltersNameTests keeps the CI workflow's test filters honest: a
// -run, -bench or -fuzz alternative that matches no test of its command's
// packages runs nothing, and nothing says so. That is how a renamed or
// deleted test silently drops out of the job meant to run it.

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const ciWorkflow = ".github/workflows/ci.yml"

// filterKinds maps a go test flag to the top-level function prefixes its
// pattern selects from.
var filterKinds = map[string][]string{
	"-run":   {"Test", "Fuzz", "Example"},
	"-bench": {"Benchmark"},
	"-fuzz":  {"Fuzz"},
}

func TestCIFiltersNameTests(t *testing.T) {
	src, err := os.ReadFile(ciWorkflow)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string][]string{} // dir, or "race|" and dir: its top-level functions
	checked := 0
	for n, line := range strings.Split(string(src), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		for _, cmd := range shellCommands(line) {
			if len(cmd) < 2 || cmd[0] != "go" || cmd[1] != "test" {
				continue
			}
			race := false
			var pkgs []string
			filters := map[string]string{}
			for i := 2; i < len(cmd); i++ {
				arg := cmd[i]
				switch {
				case arg == "-race":
					race = true
				case arg == "." || strings.HasPrefix(arg, "./"):
					pkgs = append(pkgs, arg)
				case filterKinds[arg] != nil && i+1 < len(cmd):
					filters[arg] = cmd[i+1]
					i++
				default:
					if flag, pat, ok := strings.Cut(arg, "="); ok && filterKinds[flag] != nil {
						filters[flag] = pat
					}
				}
			}
			for flag, pat := range filters {
				if pat == "^$" { // runs nothing, on purpose
					continue
				}
				var declared []string
				for _, dir := range packageDirs(t, pkgs) {
					key := dir
					if race {
						key = "race|" + dir
					}
					if _, ok := names[key]; !ok {
						names[key] = testFuncs(t, dir, race)
					}
					declared = append(declared, names[key]...)
				}
				for _, alt := range patternAlternatives(pat) {
					re, err := regexp.Compile(alt)
					if err != nil {
						t.Errorf("%s:%d: %s alternative %q: %v", ciWorkflow, n+1, flag, alt, err)
						continue
					}
					checked++
					if !matchesOne(re, declared, filterKinds[flag]) {
						t.Errorf("%s:%d: %s alternative %q matches no %s in %s",
							ciWorkflow, n+1, flag, alt, strings.Join(filterKinds[flag], "/"), strings.Join(pkgs, " "))
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatalf("%s: found no go test filter to check", ciWorkflow)
	}
}

// shellCommands splits one workflow line into its commands' words: quotes
// group, and an unquoted |, & or ; ends a command.
func shellCommands(line string) [][]string {
	var cmds [][]string
	var words []string
	var word strings.Builder
	inWord := false
	var quote rune
	flush := func() {
		if inWord {
			words = append(words, word.String())
			word.Reset()
			inWord = false
		}
	}
	for _, r := range line {
		switch {
		case quote != 0:
			if r == quote {
				quote = 0
			} else {
				word.WriteRune(r)
			}
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == '|' || r == '&' || r == ';':
			flush()
			if len(words) > 0 {
				cmds = append(cmds, words)
				words = nil
			}
		case r == ' ' || r == '\t':
			flush()
		default:
			word.WriteRune(r)
			inWord = true
		}
	}
	flush()
	if len(words) > 0 {
		cmds = append(cmds, words)
	}
	// A step's "run: go test ..." line starts its first command with "run:".
	for i, c := range cmds {
		if c[0] == "run:" {
			cmds[i] = c[1:]
		}
	}
	return cmds
}

// patternAlternatives is how go test reads a filter's top level: the part
// before the first unbracketed /, split at each unbracketed |.
func patternAlternatives(pat string) []string {
	var alts []string
	depth, start := 0, 0
	for i := 0; i < len(pat); i++ {
		switch pat[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '|', '/':
			if depth > 0 {
				continue
			}
			alts = append(alts, pat[start:i])
			start = i + 1
			if pat[i] == '/' {
				return alts
			}
		}
	}
	return append(alts, pat[start:])
}

// packageDirs expands go test's package arguments ("./x", "./x/...") into
// directories.
func packageDirs(t *testing.T, pkgs []string) []string {
	var dirs []string
	for _, p := range pkgs {
		root, all := strings.CutSuffix(p, "...")
		root = filepath.Clean(root)
		if !all {
			dirs = append(dirs, root)
			continue
		}
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if base := d.Name(); path != root && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
				return filepath.SkipDir
			}
			dirs = append(dirs, path)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return dirs
}

// testFuncs lists the top-level functions declared in dir's _test.go
// files that a build with or without -race compiles.
func testFuncs(t *testing.T, dir string, race bool) []string {
	ctx := build.Default
	if race {
		ctx.BuildTags = append(ctx.BuildTags, "race")
	}
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	fset := token.NewFileSet()
	for _, path := range files {
		if ok, err := ctx.MatchFile(dir, filepath.Base(path)); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				names = append(names, fn.Name.Name)
			}
		}
	}
	return names
}

// matchesOne reports whether re matches a name with one of the prefixes.
func matchesOne(re *regexp.Regexp, names, prefixes []string) bool {
	for _, name := range names {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) && re.MatchString(name) {
				return true
			}
		}
	}
	return false
}
