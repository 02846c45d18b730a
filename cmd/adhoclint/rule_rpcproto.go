package main

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// The rpc-protocol analysis cross-checks the three legs of the simulated
// RPC protocol against each other:
//
//   - Method* wire-string constants declared in the message packages;
//   - the `switch method` dispatch inside every HandleCall implementation,
//     with the request type each case asserts and the response type it
//     returns;
//   - every Network.Call / Send / Transfer site, with the static type of
//     the payload argument and (for Call) the type the caller asserts the
//     response to.
//
// It reports constants invoked over Call/Send with no dispatch case
// anywhere (Transfer runs no handler, so Transfer-only methods are
// exempt), dispatch cases whose wire string matches no known constant,
// fabric calls whose payload type disagrees with what the handler asserts,
// response assertions that disagree with what the handler returns, method
// arguments passed as raw string literals, duplicated wire strings, and
// messages.go structs that neither implement simnet.Payload nor occur
// inside a payload struct.

// methodConst is one Method* wire-string constant.
type methodConst struct {
	name  string
	value string
	pkg   *Package
	pos   token.Pos
}

// handlerCase is one `case MethodX:` of a HandleCall dispatch switch.
type handlerCase struct {
	value    string
	node     *funcNode // the enclosing HandleCall
	body     []ast.Stmt
	pkg      *Package
	pos      token.Pos
	fn       string       // display name of the enclosing handler
	reqTypes []types.Type // types asserted from the request parameter
	respType types.Type   // sole concrete response type, nil when opaque
}

// fabricCall is one Network.Call/Send/Transfer site.
type fabricCall struct {
	kind       string // "Call", "Send" or "Transfer"
	value      string // method wire string ("" when not constant)
	literal    bool   // method passed as a raw string literal
	pkg        *Package
	pos        token.Pos
	reqType    types.Type // static payload type, nil when opaque/interface
	respAssert types.Type // type the caller asserts the response to
}

// checkRPCProtocol runs the whole-program protocol cross-check.
func checkRPCProtocol(prog *Program, enabled map[string]bool) []Diagnostic {
	if enabled != nil && !enabled[ruleRPCProto] {
		return nil
	}
	loaded := prog.loadedPackages()
	analyzed := prog.analyzedSet()

	consts := collectMethodConsts(loaded)
	cases := prog.handlerCases()
	calls := prog.fabricCalls()

	known := map[string]bool{}
	for _, c := range consts {
		known[c.value] = true
	}
	casesByValue := map[string][]*handlerCase{}
	for _, c := range cases {
		casesByValue[c.value] = append(casesByValue[c.value], c)
	}
	invoked := map[string]bool{} // reached a handler via Call or Send
	for _, c := range calls {
		if c.value != "" && c.kind != "Transfer" {
			invoked[c.value] = true
		}
	}

	var diags []Diagnostic

	seenValue := map[string]*methodConst{}
	for _, c := range consts {
		if prev, dup := seenValue[c.value]; dup {
			if analyzed[c.pkg] {
				diags = append(diags, diagAt(c.pkg, c.pos, ruleRPCProto,
					fmt.Sprintf("%s duplicates wire string %q already used by %s", c.name, c.value, prev.name)))
			}
			continue
		}
		seenValue[c.value] = c
		if analyzed[c.pkg] && invoked[c.value] && len(casesByValue[c.value]) == 0 {
			diags = append(diags, diagAt(c.pkg, c.pos, ruleRPCProto,
				fmt.Sprintf("%s (%q) is invoked via Call/Send but no HandleCall dispatches it", c.name, c.value)))
		}
	}

	for _, c := range cases {
		if analyzed[c.pkg] && !known[c.value] {
			diags = append(diags, diagAt(c.pkg, c.pos, ruleRPCProto,
				fmt.Sprintf("%s dispatches %q, which matches no Method* constant", c.fn, c.value)))
		}
	}

	for _, c := range calls {
		if !analyzed[c.pkg] {
			continue
		}
		if c.literal {
			diags = append(diags, diagAt(c.pkg, c.pos, ruleRPCProto,
				fmt.Sprintf("method passed to %s as string literal %q; define a Method* constant", c.kind, c.value)))
		}
		if c.kind == "Transfer" || c.value == "" {
			continue // no handler runs; nothing to agree with
		}
		handlers := casesByValue[c.value]
		if c.reqType != nil {
			if want := handlerReqTypes(handlers); len(want) > 0 && !containsIdentical(want, c.reqType) {
				diags = append(diags, diagAt(c.pkg, c.pos, ruleRPCProto,
					fmt.Sprintf("%s of %q sends %s but its handler asserts %s",
						c.kind, c.value, typeDisplay(c.reqType), typeListDisplay(want))))
			}
		}
		if c.respAssert != nil {
			if want := handlerRespType(handlers); want != nil && !types.Identical(want, c.respAssert) {
				diags = append(diags, diagAt(c.pkg, c.pos, ruleRPCProto,
					fmt.Sprintf("response of %q is asserted to %s but its handler returns %s",
						c.value, typeDisplay(c.respAssert), typeDisplay(want))))
			}
		}
	}

	diags = append(diags, checkPayloadImpls(prog, loaded, analyzed)...)
	return diags
}

// collectMethodConsts finds every string constant whose name starts with
// "Method"/"method" in the production files of the loaded packages.
func collectMethodConsts(loaded []*Package) []*methodConst {
	var out []*methodConst
	for _, p := range loaded {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.CONST {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, name := range vs.Names {
						if !strings.HasPrefix(name.Name, "Method") && !strings.HasPrefix(name.Name, "method") {
							continue
						}
						c, ok := p.Info.Defs[name].(*types.Const)
						if !ok || c.Val().Kind() != constant.String {
							continue
						}
						out = append(out, &methodConst{
							name:  name.Name,
							value: constant.StringVal(c.Val()),
							pkg:   p,
							pos:   name.Pos(),
						})
					}
				}
			}
		}
	}
	return out
}

// collectHandlerCases finds every `switch method` case inside one
// HandleCall implementation, recording the request types asserted and the
// response type returned in each case body.
func collectHandlerCases(node *funcNode) []*handlerCase {
	p, fn := node.pkg, node.decl
	methodObj, reqObj := handleCallParams(p, fn)
	if methodObj == nil {
		return nil
	}
	display := fn.Name.Name
	if tn := recvTypeName(fn); tn != "" {
		display = fmt.Sprintf("%s.(*%s).HandleCall", p.Types.Name(), tn)
	}
	var out []*handlerCase
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		sw, ok := n.(*ast.SwitchStmt)
		if !ok {
			return true
		}
		tag, ok := sw.Tag.(*ast.Ident)
		if !ok || p.Info.Uses[tag] != methodObj {
			return true
		}
		for _, stmt := range sw.Body.List {
			cc, ok := stmt.(*ast.CaseClause)
			if !ok || cc.List == nil {
				continue
			}
			for _, expr := range cc.List {
				tv := p.Info.Types[expr]
				if tv.Value == nil || tv.Value.Kind() != constant.String {
					continue
				}
				hc := &handlerCase{
					value: constant.StringVal(tv.Value),
					node:  node,
					pkg:   p,
					pos:   expr.Pos(),
					fn:    display,
					body:  cc.Body,
				}
				hc.reqTypes, hc.respType = caseBodyFacts(p, cc.Body, reqObj)
				out = append(out, hc)
			}
		}
		return true
	})
	return out
}

// handleCallParams returns the objects of the method and request parameters
// of a Handler-shaped HandleCall declaration (nil, nil otherwise).
func handleCallParams(p *Package, fn *ast.FuncDecl) (methodObj, reqObj types.Object) {
	var idents []*ast.Ident
	for _, field := range fn.Type.Params.List {
		for _, name := range field.Names {
			idents = append(idents, name)
		}
	}
	if len(idents) != 3 {
		return nil, nil
	}
	// Handler shape: (at VTime, method string, req Payload).
	return p.Info.Defs[idents[1]], p.Info.Defs[idents[2]]
}

// caseBodyFacts extracts the request assertions and the response type of
// one dispatch-case body. The response type is the sole concrete type of
// the first return value across the case's three-value returns; a case
// that delegates (single-expression return) or returns interface-typed
// values is opaque (nil).
func caseBodyFacts(p *Package, body []ast.Stmt, reqObj types.Object) (reqTypes []types.Type, respType types.Type) {
	var respTypes []types.Type
	opaque := false
	for _, stmt := range body {
		ast.Inspect(stmt, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeAssertExpr:
				if id, ok := unparen(n.X).(*ast.Ident); ok && reqObj != nil && p.Info.Uses[id] == reqObj {
					if t := p.Info.Types[n.Type].Type; t != nil {
						reqTypes = append(reqTypes, t)
					}
				}
			case *ast.ReturnStmt:
				if len(n.Results) != 3 {
					if len(n.Results) > 0 {
						opaque = true // delegation: `return n.other(...)`
					}
					return true
				}
				tv := p.Info.Types[n.Results[0]]
				if tv.Type == nil || tv.IsNil() {
					return true
				}
				if _, isIface := tv.Type.Underlying().(*types.Interface); isIface {
					opaque = true
					return true
				}
				if !containsIdentical(respTypes, tv.Type) {
					respTypes = append(respTypes, tv.Type)
				}
			}
			return true
		})
	}
	if opaque || len(respTypes) != 1 {
		return reqTypes, nil
	}
	return reqTypes, respTypes[0]
}

// fabricCallsIn finds every Network.Call/Send/Transfer site of one body,
// with the response assertion (when the Call result is later type-asserted
// through the variable it was assigned to).
func fabricCallsIn(p *Package, fn *ast.FuncDecl, simnetPath string) []*fabricCall {
	var out []*fabricCall
	respVars := map[types.Object]*fabricCall{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// `resp, done, err := net.Call(...)`: remember which variable
			// carries the response so a later resp.(T) can be matched up.
			if len(n.Rhs) != 1 || len(n.Lhs) != 3 {
				return true
			}
			call, ok := n.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			fc := fabricCallAt(p, call, simnetPath)
			if fc == nil {
				return true
			}
			out = append(out, fc)
			if id, ok := n.Lhs[0].(*ast.Ident); ok && id.Name != "_" && fc.kind == "Call" {
				if obj := p.Info.Defs[id]; obj != nil {
					respVars[obj] = fc
				} else if obj := p.Info.Uses[id]; obj != nil {
					respVars[obj] = fc
				}
			}
			return true
		case *ast.CallExpr:
			if fc := fabricCallAt(p, n, simnetPath); fc != nil {
				out = append(out, fc)
			}
			return true
		case *ast.TypeAssertExpr:
			if n.Type == nil {
				return true
			}
			if id, ok := unparen(n.X).(*ast.Ident); ok {
				if fc, tracked := respVars[p.Info.Uses[id]]; tracked && fc.respAssert == nil {
					fc.respAssert = p.Info.Types[n.Type].Type
				}
			}
			return true
		}
		return true
	})
	// Direct CallExprs nested inside recorded assignments are revisited by
	// the walk; dedupe by position.
	seen := map[token.Pos]bool{}
	var dedup []*fabricCall
	for _, fc := range out {
		if !seen[fc.pos] {
			seen[fc.pos] = true
			dedup = append(dedup, fc)
		}
	}
	return dedup
}

// fabricCallAt recognizes a Network.Call/Send/Transfer call expression.
func fabricCallAt(p *Package, call *ast.CallExpr, simnetPath string) *fabricCall {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	kind := sel.Sel.Name
	if kind != "Call" && kind != "Send" && kind != "Transfer" {
		return nil
	}
	if !isNamedType(p.Info.Types[sel.X].Type, simnetPath, "Network") || len(call.Args) < 4 {
		return nil
	}
	fc := &fabricCall{kind: kind, pkg: p, pos: call.Pos()}
	methodArg := call.Args[2]
	if tv := p.Info.Types[methodArg]; tv.Value != nil && tv.Value.Kind() == constant.String {
		fc.value = constant.StringVal(tv.Value)
	}
	if _, isLit := unparen(methodArg).(*ast.BasicLit); isLit {
		fc.literal = true
	}
	if t := p.Info.Types[call.Args[3]].Type; t != nil {
		if _, isIface := t.Underlying().(*types.Interface); !isIface {
			fc.reqType = t
		}
	}
	return fc
}

// isNamedType reports whether t (possibly behind a pointer) is the named
// type pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == pkgPath && named.Obj().Name() == name
}

// handlerReqTypes unions the request types asserted by the cases of one
// method.
func handlerReqTypes(cases []*handlerCase) []types.Type {
	var out []types.Type
	for _, c := range cases {
		for _, t := range c.reqTypes {
			if !containsIdentical(out, t) {
				out = append(out, t)
			}
		}
	}
	return out
}

// handlerRespType returns the sole concrete response type across the cases
// of one method, or nil when cases disagree or are opaque.
func handlerRespType(cases []*handlerCase) types.Type {
	var resp types.Type
	for _, c := range cases {
		if c.respType == nil {
			return nil
		}
		if resp == nil {
			resp = c.respType
		} else if !types.Identical(resp, c.respType) {
			return nil
		}
	}
	return resp
}

func containsIdentical(ts []types.Type, t types.Type) bool {
	for _, have := range ts {
		if types.Identical(have, t) {
			return true
		}
	}
	return false
}

// typeDisplay renders a type compactly ("overlay.PutReq").
func typeDisplay(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}

func typeListDisplay(ts []types.Type) string {
	names := make([]string, len(ts))
	for i, t := range ts {
		names[i] = typeDisplay(t)
	}
	sort.Strings(names)
	return strings.Join(names, " or ")
}

// checkPayloadImpls flags structs declared in messages.go files that
// neither implement simnet.Payload nor occur (transitively) as a field or
// element type of a struct that does: such a struct cannot go on the wire
// and is either dead or missing its SizeBytes.
func checkPayloadImpls(prog *Program, loaded []*Package, analyzed map[*Package]bool) []Diagnostic {
	iface := prog.payloadIface()
	if iface == nil {
		return nil
	}

	var diags []Diagnostic
	for _, p := range loaded {
		if !analyzed[p] {
			continue
		}
		type structDecl struct {
			name *ast.Ident
			typ  types.Type
		}
		var declared []structDecl
		var payloads []types.Type
		for _, f := range p.Files {
			if filepath.Base(p.Fset.Position(f.Pos()).Filename) != "messages.go" {
				continue
			}
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					tn, ok := p.Info.Defs[ts.Name].(*types.TypeName)
					if !ok {
						continue
					}
					if _, isStruct := tn.Type().Underlying().(*types.Struct); !isStruct {
						continue
					}
					declared = append(declared, structDecl{ts.Name, tn.Type()})
					if implementsPayload(tn.Type(), iface) {
						payloads = append(payloads, tn.Type())
					}
				}
			}
		}
		if len(declared) == 0 {
			continue
		}
		components := map[types.Type]bool{}
		for _, t := range payloads {
			markComponents(t, components, map[types.Type]bool{})
		}
		for _, d := range declared {
			if implementsPayload(d.typ, iface) || components[d.typ] {
				continue
			}
			diags = append(diags, diagAt(p, d.name.Pos(), ruleRPCProto,
				fmt.Sprintf("%s is declared in messages.go but neither implements simnet.Payload nor occurs inside a payload struct", d.name.Name)))
		}
	}
	return diags
}

func implementsPayload(t types.Type, iface *types.Interface) bool {
	return types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface)
}

// markComponents records every named type reachable through the fields,
// elements and map keys/values of a payload struct.
func markComponents(t types.Type, components, visiting map[types.Type]bool) {
	if visiting[t] {
		return
	}
	visiting[t] = true
	switch u := t.(type) {
	case *types.Pointer:
		markComponents(u.Elem(), components, visiting)
		return
	case *types.Slice:
		markComponents(u.Elem(), components, visiting)
		return
	case *types.Array:
		markComponents(u.Elem(), components, visiting)
		return
	case *types.Map:
		markComponents(u.Key(), components, visiting)
		markComponents(u.Elem(), components, visiting)
		return
	}
	if named, ok := t.(*types.Named); ok {
		if !components[named] {
			components[named] = true
		}
	}
	if st, ok := t.Underlying().(*types.Struct); ok {
		for i := 0; i < st.NumFields(); i++ {
			markComponents(st.Field(i).Type(), components, visiting)
		}
	}
}
