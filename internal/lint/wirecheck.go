package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// WireCheck closes the protocol surface: every request/reply type the
// cluster can put on the wire must be visible to the registries that
// keep the §5 traffic model honest and to the codec that carries it
// over TCP. A new RPC that skips the first three "works" on simnet —
// WireSize falls back to a bare header, the transport buckets the
// traffic as unpriced — and silently skews the byte accounting and the
// conformance checker's cost comparison against the paper's tables; one
// that skips the codec works on simnet and fails its first call over
// rpcnet.
//
// Within the protocol package it checks that every struct type with a
// Kind() (request) or RespKind() (reply) method:
//
//  1. has a case in the WireSize type switch, so simnet's byte-level
//     §5 accounting prices it instead of counting a bare header;
//  2. is registered in RegisterGob, so a gob stream (today only the
//     benchmark's codec ladder rung) can carry it as an interface value;
//  3. (requests) has its kind string in the KindOps pricing table
//     that maps each request kind to the §5 operation classes whose
//     cost formulas cover its traffic — the conformance checker
//     rejects traffic from unpriced kinds;
//  4. has a case in the encode type switch (AppendRequest or
//     AppendResponse) and is built in a case of the decode switch
//     (DecodeRequest or DecodeResponse) of the binary codec, so rpcnet
//     can frame it.
//
// Stale KindOps entries (a priced kind with no message type) are
// reported too, so the table and the type set can never drift apart
// in either direction.
var WireCheck = &Analyzer{
	Name:  "wirecheck",
	Topic: "wire",
	Doc: "every protocol request/reply type must be priced in WireSize, " +
		"registered in RegisterGob, (requests) mapped in the KindOps §5 " +
		"pricing table, and handled by both switches of the binary codec",
	Run: runWireCheck,
}

// wireMsg is one request or reply type found in the package.
type wireMsg struct {
	name    *types.TypeName
	request bool   // has Kind(); false means RespKind()
	kind    string // Kind() literal, requests only ("" if unresolvable)
}

func runWireCheck(p *Pass) {
	if !pkgHasElement(p.Types, "protocol") {
		return
	}
	msgs := collectWireMsgs(p)
	if len(msgs) == 0 {
		return
	}

	sized, haveWireSize := switchCaseTypes(p, "WireSize")
	encoded, haveEncode := switchCaseTypes(p, "AppendRequest", "AppendResponse")
	decoded, haveDecode := decodedTypes(p, "DecodeRequest", "DecodeResponse")
	registered, haveRegister := gobRegistrations(p)
	priced, kindKeys, haveKindOps := kindOpsKeys(p)

	first := msgs[0].name.Pos()
	if !haveWireSize {
		p.Reportf(first, "package declares protocol messages but no WireSize function: simnet's §5 byte accounting cannot price them")
	}
	if !haveRegister {
		p.Reportf(first, "package declares protocol messages but no RegisterGob function: a gob stream cannot carry them as interface values")
	}
	if !haveEncode || !haveDecode {
		p.Reportf(first, "package declares protocol messages but no binary codec (AppendRequest/AppendResponse, DecodeRequest/DecodeResponse): rpcnet cannot frame them")
	}
	if !haveKindOps {
		p.Reportf(first, "package declares protocol messages but no KindOps pricing table: the §5 conformance checker cannot attribute their traffic")
	}

	for _, m := range msgs {
		if haveWireSize && !sized[m.name] {
			p.Reportf(m.name.Pos(),
				"protocol message %s has no WireSize case: §5 byte accounting will undercount it as a bare header", m.name.Name())
		}
		if haveRegister && !registered[m.name] {
			p.Reportf(m.name.Pos(),
				"protocol message %s is not registered in RegisterGob: a gob stream cannot carry it as an interface value", m.name.Name())
		}
		if haveEncode && haveDecode {
			if !encoded[m.name] {
				p.Reportf(m.name.Pos(),
					"protocol message %s has no case in the codec's encode switch: rpcnet cannot put it on the wire", m.name.Name())
			}
			if !decoded[m.name] {
				p.Reportf(m.name.Pos(),
					"protocol message %s has no case in the codec's decode switch: rpcnet cannot read it off the wire", m.name.Name())
			}
		}
		if m.request && haveKindOps {
			if m.kind == "" {
				p.Reportf(m.name.Pos(),
					"protocol request %s has a non-literal Kind(): wirecheck cannot tie it to the KindOps §5 pricing table", m.name.Name())
			} else if _, ok := priced[m.kind]; !ok {
				p.Reportf(m.name.Pos(),
					"request kind %q (%s) is missing from the KindOps §5 pricing table: its traffic would skew the conformance model unattributed", m.kind, m.name.Name())
			}
		}
	}

	// Reverse direction: a priced kind must name a live request type.
	if haveKindOps {
		kinds := make(map[string]bool)
		for _, m := range msgs {
			if m.request {
				kinds[m.kind] = true
			}
		}
		for _, key := range kindKeys {
			if !kinds[key.kind] {
				p.Reportf(key.pos,
					"KindOps prices kind %q but no request type declares it: stale pricing entries hide real coverage gaps", key.kind)
			}
		}
	}
}

// collectWireMsgs finds the package's message types in declaration
// order: named struct types with a Kind() string or RespKind() string
// method.
func collectWireMsgs(p *Pass) []wireMsg {
	var msgs []wireMsg
	kindLits := kindLiterals(p)
	scope := p.Types.Scope()
	// Walk declarations in source order (scope.Names is sorted
	// alphabetically; report order follows diagnostics sorting anyway).
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, ok := named.Underlying().(*types.Struct); !ok {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			switch m := named.Method(i); m.Name() {
			case "Kind":
				msgs = append(msgs, wireMsg{name: tn, request: true, kind: kindLits[tn.Name()]})
			case "RespKind":
				msgs = append(msgs, wireMsg{name: tn})
			}
		}
	}
	return msgs
}

// kindLiterals maps receiver type name -> the string literal returned
// by its Kind method, for methods of the one-line `return "kind"` form.
func kindLiterals(p *Pass) map[string]string {
	lits := make(map[string]string)
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "Kind" || fd.Recv == nil || fd.Body == nil {
				continue
			}
			obj, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			recv := recvBaseName(obj)
			if recv == "" {
				continue
			}
			for _, stmt := range fd.Body.List {
				ret, ok := stmt.(*ast.ReturnStmt)
				if !ok || len(ret.Results) != 1 {
					continue
				}
				if tv, ok := p.Info.Types[ret.Results[0]]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
					lits[recv] = constant.StringVal(tv.Value)
				}
			}
		}
	}
	return lits
}

// eachCaseClause calls visit for every switch case clause inside the
// package's functions of the given names (clauses nested in a clause's
// body are visit's to walk). It reports whether any of the functions
// exists.
func eachCaseClause(p *Pass, funcs []string, visit func(*ast.CaseClause)) bool {
	found := false
	for _, name := range funcs {
		fd := findFuncDecl(p, name)
		if fd == nil {
			continue
		}
		found = true
		ast.Inspect(fd, func(n ast.Node) bool {
			clause, ok := n.(*ast.CaseClause)
			if ok {
				visit(clause)
			}
			return !ok
		})
	}
	return found
}

// switchCaseTypes collects the named types that appear as cases of the
// type switches inside the named functions.
func switchCaseTypes(p *Pass, funcs ...string) (map[*types.TypeName]bool, bool) {
	cases := make(map[*types.TypeName]bool)
	found := eachCaseClause(p, funcs, func(clause *ast.CaseClause) {
		for _, e := range clause.List {
			if tn := namedTypeOf(p, e); tn != nil {
				cases[tn] = true
			}
		}
	})
	return cases, found
}

// decodedTypes collects the named types built by a composite literal
// inside a case clause of the named functions — the shape of the
// codec's decode switch, whose cases are kind tags and whose bodies
// construct the message.
func decodedTypes(p *Pass, funcs ...string) (map[*types.TypeName]bool, bool) {
	built := make(map[*types.TypeName]bool)
	found := eachCaseClause(p, funcs, func(clause *ast.CaseClause) {
		for _, stmt := range clause.Body {
			ast.Inspect(stmt, func(n ast.Node) bool {
				if lit, ok := n.(*ast.CompositeLit); ok {
					if tn := namedTypeOf(p, lit); tn != nil {
						built[tn] = true
					}
				}
				return true
			})
		}
	})
	return built, found
}

// namedTypeOf returns the declared type (through one pointer) of an
// expression, or nil when it has none.
func namedTypeOf(p *Pass, e ast.Expr) *types.TypeName {
	t := p.Info.TypeOf(e)
	if t == nil {
		return nil
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

// gobRegistrations collects the named types registered by the
// package's RegisterGob function via gob.Register(T{}) calls.
func gobRegistrations(p *Pass) (map[*types.TypeName]bool, bool) {
	regs := make(map[*types.TypeName]bool)
	fd := findFuncDecl(p, "RegisterGob")
	if fd == nil {
		return nil, false
	}
	ast.Inspect(fd, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		fn := calleeOf(p.Info, call)
		if fn == nil || fn.Name() != "Register" || fn.Pkg() == nil || fn.Pkg().Path() != "encoding/gob" {
			return true
		}
		if tn := namedTypeOf(p, call.Args[0]); tn != nil {
			regs[tn] = true
		}
		return true
	})
	return regs, true
}

// kindKey is one string key of the KindOps map literal.
type kindKey struct {
	kind string
	pos  token.Pos
}

// kindOpsKeys collects the string keys of the package-level KindOps
// map literal.
func kindOpsKeys(p *Pass) (map[string]bool, []kindKey, bool) {
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if name.Name != "KindOps" || i >= len(vs.Values) {
						continue
					}
					lit, ok := ast.Unparen(vs.Values[i]).(*ast.CompositeLit)
					if !ok {
						continue
					}
					priced := make(map[string]bool)
					var keys []kindKey
					for _, elt := range lit.Elts {
						kv, ok := elt.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						tv, ok := p.Info.Types[kv.Key]
						if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
							continue
						}
						kind := constant.StringVal(tv.Value)
						priced[kind] = true
						keys = append(keys, kindKey{kind: kind, pos: kv.Key.Pos()})
					}
					return priced, keys, true
				}
			}
		}
	}
	return nil, nil, false
}

// findFuncDecl returns the package's top-level function declaration
// with the given name, or nil.
func findFuncDecl(p *Pass, name string) *ast.FuncDecl {
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == name {
				return fd
			}
		}
	}
	return nil
}
