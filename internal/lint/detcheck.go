package lint

import (
	"go/ast"
	"go/types"
)

// DetCheck guards replay determinism: the fault schedule, chaos
// digests, simulations, and workload generators must produce
// bit-identical runs for a given seed, because chaos verdicts are
// compared across runs and across hosts. Wall-clock reads, the
// process-seeded global math/rand source, and map iteration order
// all break that.
//
// Within the packages detScopeElems names it flags:
//
//  1. wall-clock calls (time.Now, Since, Until, Sleep, After, ...);
//  2. package-level math/rand functions, which draw from the shared
//     process-seeded source (seeded rand.New streams are fine);
//  3. `for range` over a map whose body feeds output or a digest
//     (fmt print calls, Write*/stamp/violatef) — iteration order
//     would leak into replayable output; sort the keys first.
//
// Deliberate exceptions carry //relidev:allow nondeterminism: reason.
var DetCheck = &Analyzer{
	Name:  "detcheck",
	Topic: "nondeterminism",
	Doc: "forbid wall-clock time, global math/rand, and unsorted map " +
		"iteration feeding output/digests in replay-deterministic packages",
	Run: runDetCheck,
}

// The scope is every package whose decisions or output ride a replayed
// artifact: the harnesses and their models, the observability tree
// whose snapshots, traces, dumps and alerts land in chaos reports (its
// subpackages named so the scope survives a move), and store and
// cache, whose flush timing and admission replay. All take
// their time from an injected clock.Clock (DESIGN.md "Time"): the only
// allowed wall-clock touches are clock.Wall's two, plus the pacing
// sleeps in simnet and faultnet.
var detScopeElems = []string{"faultnet", "chaos", "sim", "simnet", "markov", "obs", "store", "cache", "flight", "alert", "tsdb", "clock"}

var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true, "Seed": true,
	"Read": true,
}

// fmt functions that emit formatted output.
var fmtEmitFuncs = map[string]bool{
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Print": true, "Printf": true, "Println": true,
}

// Methods that feed bytes into writers or digests, plus the repo's
// chaos digest helpers.
var emitMethodNames = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true,
	"WriteRune": true, "stamp": true, "violatef": true,
}

func runDetCheck(p *Pass) {
	if !pkgHasElement(p.Types, detScopeElems...) {
		return
	}
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkNondetCall(p, n)
			case *ast.RangeStmt:
				checkMapRangeEmit(p, n)
			}
			return true
		})
	}
}

func checkNondetCall(p *Pass, call *ast.CallExpr) {
	fn := calleeOf(p.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods like rand.Rand.Intn or time.Time.Add are fine
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallClockFuncs[fn.Name()] {
			p.Reportf(call.Pos(),
				"time.%s in a replay-deterministic package: derive time from the simulation schedule or seed, not the wall clock", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if globalRandFuncs[fn.Name()] {
			p.Reportf(call.Pos(),
				"global rand.%s draws from the process-seeded source: use a per-component rand.New(rand.NewSource(seed)) stream", fn.Name())
		}
	}
}

func checkMapRangeEmit(p *Pass, rng *ast.RangeStmt) {
	tv := p.Info.TypeOf(rng.X)
	if tv == nil {
		return
	}
	if _, ok := tv.Underlying().(*types.Map); !ok {
		return
	}
	reported := false
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if reported {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeOf(p.Info, call)
		if fn == nil {
			return true
		}
		sig, _ := fn.Type().(*types.Signature)
		isMethod := sig != nil && sig.Recv() != nil
		emits := false
		switch {
		case !isMethod && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && fmtEmitFuncs[fn.Name()]:
			emits = true
		case isMethod && emitMethodNames[fn.Name()]:
			emits = true
		case !isMethod && emitMethodNames[fn.Name()]:
			emits = true // plain helper named stamp/violatef
		}
		if emits {
			reported = true
			p.Reportf(rng.Range,
				"map iteration order is nondeterministic and this loop feeds output or a digest (%s): collect and sort the keys first", fn.Name())
			return false
		}
		return true
	})
}
