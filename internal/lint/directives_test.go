package lint_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestNondeterminismDirectiveCount pins how many wall-clock escapes the
// program keeps: clock.Wall's read, clock.Wall's timer, and faultnet's
// drawn delay. Every other time source is injected, so a fourth
// directive is a new nondeterminism and has to raise this number on
// purpose.
func TestNondeterminismDirectiveCount(t *testing.T) {
	const want = 3
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	var found []string
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
		for _, group := range f.Comments {
			for _, c := range group.List {
				if strings.HasPrefix(c.Text, "//relidev:allow nondeterminism") {
					found = append(found, fset.Position(c.Pos()).String())
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != want {
		t.Fatalf("%d nondeterminism directives, want %d:\n%s", len(found), want, strings.Join(found, "\n"))
	}
}
