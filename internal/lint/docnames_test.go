package lint_test

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"unicode"
)

// moduleTree is the type-checked module: every package by import path,
// plus every Go file's slash path relative to the module root.
type moduleTree struct {
	root  string
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*types.Package
	files []string
}

// Import type-checks the module's own packages from their source and
// hands everything else to the standard library's source importer.
func (m *moduleTree) Import(path string) (*types.Package, error) {
	if path != "relidev" && !strings.HasPrefix(path, "relidev/") {
		return m.std.Import(path)
	}
	if pkg, ok := m.pkgs[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(m.root, strings.TrimPrefix(strings.TrimPrefix(path, "relidev"), "/"))
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg, err := (&types.Config{Importer: m}).Check(path, m.fset, files, nil)
	m.pkgs[path] = pkg
	return pkg, err
}

func loadModule(t *testing.T) *moduleTree {
	t.Helper()
	m := &moduleTree{root: filepath.Join("..", ".."), fset: token.NewFileSet(), pkgs: map[string]*types.Package{}}
	m.std = importer.ForCompiler(m.fset, "source", nil)
	err := filepath.WalkDir(m.root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != m.root):
			return filepath.SkipDir
		case !d.IsDir() && strings.HasSuffix(path, ".go"):
			rel, _ := filepath.Rel(m.root, path)
			m.files = append(m.files, filepath.ToSlash(rel))
		case d.IsDir():
			// benchmark/ is its own module: its files count, its packages not.
			rel, _ := filepath.Rel(m.root, path)
			rel = filepath.ToSlash(rel)
			if _, err := build.Default.ImportDir(path, 0); err == nil && rel != "benchmark" && !strings.HasPrefix(rel, "benchmark/") {
				if _, err := m.Import(strings.TrimSuffix("relidev/"+rel, "/.")); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// resolve checks a `X.Y` or `X.Y.Z` reference. X must name a package or
// a type of this module, or the reference is not ours to judge.
func (m *moduleTree) resolve(x, y, z string) (ours, ok bool) {
	member := func(obj types.Object, name string) bool {
		if _, isType := obj.(*types.TypeName); !isType {
			return false
		}
		found, _, _ := types.LookupFieldOrMethod(obj.Type(), true, obj.Pkg(), name)
		return found != nil
	}
	for _, pkg := range m.pkgs {
		if pkg.Name() == x {
			ours = true
			if obj := pkg.Scope().Lookup(y); obj != nil && (z == "" || member(obj, z)) {
				return true, true
			}
		}
		if obj := pkg.Scope().Lookup(x); obj != nil && z == "" {
			if _, isType := obj.(*types.TypeName); isType {
				ours = true
				if member(obj, y) {
					return true, true
				}
			}
		}
	}
	return ours, false
}

// hasFunc reports whether some package of this module declares a
// package-level func called name.
func (m *moduleTree) hasFunc(name string) bool {
	for _, pkg := range m.pkgs {
		if _, ok := pkg.Scope().Lookup(name).(*types.Func); ok {
			return true
		}
	}
	return false
}

// hasMethod reports whether some type of this module has a method
// called name.
func (m *moduleTree) hasMethod(name string) bool {
	for _, pkg := range m.pkgs {
		for _, n := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(n).(*types.TypeName); ok {
				if obj, _, _ := types.LookupFieldOrMethod(tn.Type(), true, pkg, name); obj != nil {
					if _, isMethod := obj.(*types.Func); isMethod {
						return true
					}
				}
			}
		}
	}
	return false
}

// imports reports whether some package of this module imports a
// package called name: `time.Now()` is the standard library's.
func (m *moduleTree) imports(name string) bool {
	for _, pkg := range m.pkgs {
		for _, imp := range pkg.Imports() {
			if imp.Name() == name {
				return true
			}
		}
	}
	return false
}

var (
	codeSpan = regexp.MustCompile("`([^`\n]+)`")
	selector = regexp.MustCompile(`^\*?([A-Za-z_]\w*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?(?:\(.*\))?$`)
	option   = regexp.MustCompile(`^(With[A-Z]\w*)(?:\(.*\))?$`)
	goFile   = regexp.MustCompile(`^[\w./-]+\.go$`)
	section  = regexp.MustCompile(`^#{1,2} `)
	retired  = regexp.MustCompile(`(?i)\bretired in PR \d+`)
)

// benchMetrics returns the metric names BENCHMARK.json declares, such as
// `store.log_bytes_per_live_byte`: dotted like a selector, but names of
// the benchmark's report, not of the tree.
func benchMetrics(t *testing.T, root string) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		names[m.Name] = true
	}
	return names
}

// TestDocNamesResolve: every backticked `pkg.Ident`, `Type.Method`,
// method call on a lower-case receiver such as `cluster.Health()`
// (some type of the module must declare the method), bare option
// constructor `WithFoo` and `path/file.go` in README.md,
// DESIGN.md and EXPERIMENTS.md names something that exists in the
// type-checked tree, so the prose shrinks with the code. A span naming
// a BENCHMARK.json metric is not a name of the tree. A section (from one
// `#` or `##` heading to the next) that says its names were "retired in
// PR N" says so once and is history: its spans are not checked.
func TestDocNamesResolve(t *testing.T) {
	m := loadModule(t)
	metrics := benchMetrics(t, m.root)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		raw, err := os.ReadFile(filepath.Join(m.root, doc))
		if err != nil {
			t.Fatal(err)
		}
		var stale []string // unresolved spans of the current section
		history := false
		flush := func() {
			if !history {
				for _, msg := range stale {
					t.Error(msg)
				}
			}
			stale, history = nil, false
		}
		for i, line := range strings.Split(string(raw), "\n") {
			if section.MatchString(line) {
				flush()
			}
			history = history || retired.MatchString(line)
			for _, match := range codeSpan.FindAllStringSubmatch(line, -1) {
				span := match[1]
				switch s := selector.FindStringSubmatch(span); {
				case metrics[span]:
				case goFile.MatchString(span):
					if !slices.ContainsFunc(m.files, func(f string) bool { return f == span || strings.HasSuffix(f, "/"+span) }) {
						stale = append(stale, fmt.Sprintf("%s:%d: `%s` names no file of the tree", doc, i+1, span))
					}
				case s != nil:
					ours, ok := m.resolve(s[1], s[2], s[3])
					if !ours && s[3] == "" && strings.HasSuffix(span, ")") && unicode.IsLower(rune(s[1][0])) && !m.imports(s[1]) {
						if !m.hasMethod(s[2]) {
							stale = append(stale, fmt.Sprintf("%s:%d: `%s` calls a method no type of the module declares", doc, i+1, span))
						}
					} else if ours && !ok {
						stale = append(stale, fmt.Sprintf("%s:%d: `%s` names nothing in package or type %s", doc, i+1, span, s[1]))
					}
				case option.MatchString(span):
					if !m.hasFunc(option.FindStringSubmatch(span)[1]) {
						stale = append(stale, fmt.Sprintf("%s:%d: `%s` names no func of the module", doc, i+1, span))
					}
				}
			}
		}
		flush()
	}
}
