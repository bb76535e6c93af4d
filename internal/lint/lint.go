// Package lint implements relidevlint, a small go/analysis-style
// analyzer suite that machine-checks the invariants this repo's
// correctness rests on: OpLocks critical-section discipline on the
// replicated-block data path (paper §3 fail-stop model, §3.1 version
// numbers), replay determinism in the fault/chaos/simulation layers,
// sentinel-classified transport errors, context propagation, and a
// provable join for every goroutine a library package spawns. The wire
// format needs no analyzer: each protocol message carries its own
// encoding and size as methods, so a message missing one does not
// compile (DESIGN.md §17).
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic) but is built on the standard library
// only, so the tool builds with an empty module cache and no network.
// cmd/relidevlint adapts it to the `go vet -vettool=...` protocol;
// linttest runs analyzers against fixtures under testdata/src.
//
// Findings can be suppressed with a directive comment on the same
// line (or the line immediately above):
//
//	//relidev:allow <topic>: <reason>
//
// where <topic> is the analyzer's Topic (e.g. "nondeterminism" for
// detcheck). A reason is required: a bare directive is itself
// reported, so every suppression documents why the invariant does
// not apply.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	Name  string // short identifier, e.g. "lockcheck"
	Doc   string // one-paragraph description of the invariant
	Topic string // //relidev:allow <topic> suppresses its findings
	Run   func(*Pass)
}

// A Package is one parsed, type-checked compilation unit.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// graph caches the package-level call graph; see CallGraph.
	graph *CallGraph
}

// A Diagnostic is a single finding, already resolved to a position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [relidevlint/%s]", d.Pos, d.Message, d.Analyzer)
}

// A Pass carries one analyzer's view of one package.
type Pass struct {
	*Package
	analyzer *Analyzer
	allows   allowIndex
	diags    *[]Diagnostic
}

// Reportf records a finding at pos unless the position is in a test
// file or covered by a matching //relidev:allow directive.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if strings.HasSuffix(position.Filename, "_test.go") {
		return // tests may fake time, randomness, and lock order
	}
	if p.allows.allowed(p.analyzer, position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full relidevlint suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{LockCheck, DetCheck, TransportCheck, CtxCheck, LeakCheck}
}

// Run applies the given analyzers to one package and returns the
// surviving diagnostics sorted by position.
func Run(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	allows, bare := collectAllows(pkg)
	var diags []Diagnostic
	diags = append(diags, bare...)
	for _, an := range analyzers {
		pass := &Pass{Package: pkg, analyzer: an, allows: allows, diags: &diags}
		an.Run(pass)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// allowDirective is the comment prefix that suppresses findings.
const allowDirective = "//relidev:allow"

// allowIndex maps filename -> line -> topics allowed on that line.
type allowIndex map[string]map[int][]string

// allowed reports whether a finding by an at pos is suppressed by a
// directive on the same line or the line directly above it.
func (idx allowIndex) allowed(an *Analyzer, pos token.Position) bool {
	lines := idx[pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, topic := range lines[line] {
			if topic == an.Topic || topic == an.Name || topic == "all" {
				return true
			}
		}
	}
	return false
}

// collectAllows scans every comment in the package for allow
// directives. Directives without a reason are returned as
// diagnostics in their own right so suppressions stay justified.
func collectAllows(pkg *Package) (allowIndex, []Diagnostic) {
	idx := make(allowIndex)
	var bare []Diagnostic
	for _, file := range pkg.Files {
		for _, group := range file.Comments {
			for _, c := range group.List {
				text, ok := strings.CutPrefix(c.Text, allowDirective)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(text)
				if len(fields) == 0 {
					bare = append(bare, Diagnostic{
						Analyzer: "allowdirective",
						Pos:      pos,
						Message:  "relidev:allow directive without a topic",
					})
					continue
				}
				topic := strings.TrimSuffix(fields[0], ":")
				if len(fields) == 1 && !strings.HasSuffix(pos.Filename, "_test.go") {
					bare = append(bare, Diagnostic{
						Analyzer: "allowdirective",
						Pos:      pos,
						Message:  fmt.Sprintf("relidev:allow %s needs a reason, e.g. //relidev:allow %s: why the invariant holds anyway", topic, topic),
					})
				}
				if idx[pos.Filename] == nil {
					idx[pos.Filename] = make(map[int][]string)
				}
				idx[pos.Filename][pos.Line] = append(idx[pos.Filename][pos.Line], topic)
			}
		}
	}
	return idx, bare
}
