package lint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// forEachProgramFile parses every non-test Go file of the module
// outside testdata and benchmark/ and hands it to visit.
func forEachProgramFile(t *testing.T, fset *token.FileSet, visit func(*ast.File)) {
	t.Helper()
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case "testdata", ".git", "benchmark":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		visit(f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNondeterminismDirectiveCount pins how many wall-clock escapes the
// program keeps: clock.Wall's read, clock.Wall's timer, and faultnet's
// drawn delay. Every other time source is injected, so a fourth
// directive is a new nondeterminism and has to raise this number on
// purpose.
func TestNondeterminismDirectiveCount(t *testing.T) {
	const want = 3
	fset := token.NewFileSet()
	var found []string
	forEachProgramFile(t, fset, func(f *ast.File) {
		for _, group := range f.Comments {
			for _, c := range group.List {
				if strings.HasPrefix(c.Text, "//relidev:allow nondeterminism") {
					found = append(found, fset.Position(c.Pos()).String())
				}
			}
		}
	})
	if len(found) != want {
		t.Fatalf("%d nondeterminism directives, want %d:\n%s", len(found), want, strings.Join(found, "\n"))
	}
}

// atomicCalls returns the calls f makes to sync/atomic's package-level
// functions (atomic.AddUint64(&x, 1) and the like). A method call on a
// typed atomic (n.Add(1)) is not one.
func atomicCalls(f *ast.File) []token.Pos {
	name := ""
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path == "sync/atomic" {
			name = "atomic"
			if imp.Name != nil {
				name = imp.Name.Name
			}
		}
	}
	if name == "" {
		return nil
	}
	var calls []token.Pos
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == name {
					calls = append(calls, call.Pos())
				}
			}
		}
		return true
	})
	return calls
}

// TestNoAtomicFunctionCalls keeps every atomic word a typed atomic
// (atomic.Uint64 and friends), whose method set is its only access path,
// so no word can be read atomically on one path and plainly on another.
// The planted source checks the matcher both ways first.
func TestNoAtomicFunctionCalls(t *testing.T) {
	const planted = `package p

import "sync/atomic"

var x uint64

func f() {
	var n atomic.Uint64
	n.Add(1)
	atomic.AddUint64(&x, 1)
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "planted.go", planted, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	if got := atomicCalls(f); len(got) != 1 || fset.Position(got[0]).Line != 10 {
		t.Fatalf("planted source: atomic calls at %v, want one, on line 10", got)
	}

	var found []string
	forEachProgramFile(t, fset, func(f *ast.File) {
		for _, pos := range atomicCalls(f) {
			found = append(found, fset.Position(pos).String())
		}
	})
	if len(found) != 0 {
		t.Fatalf("sync/atomic function calls; use a typed atomic instead:\n%s", strings.Join(found, "\n"))
	}
}
