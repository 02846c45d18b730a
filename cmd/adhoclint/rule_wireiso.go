package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The wire-isolation analysis (rule "wireiso") enforces the paper's node
// isolation on the simulated wire: every node runs in one Go address
// space, so an RPC payload that retains an alias to a sender's or
// receiver's mutable state silently breaches the "data never leaves its
// provider" invariant and can corrupt the deterministic location tables.
//
// The rule tracks every value flowing into a simnet.Network.Call/Send/
// Transfer request position and out of a HandleCall-shaped response
// position, and requires each such value to be *wire-safe*:
//
//   - reference-free: its type transitively contains no maps, slices,
//     pointers, interfaces, channels or functions (strings are fine);
//   - freshly allocated on the flow path: a composite literal, make/new,
//     an append onto a fresh base, or the result of a function whose
//     returns are themselves wire-safe (summaries are computed
//     interprocedurally and memoized per function — the per-type/
//     per-function copy-summary cache);
//   - deep-copied: the result of a Clone/DeepCopy/Copy method;
//   - wire-derived: a request a handler received, or a response a caller
//     got back — such values were checked for safety at their original
//     send, so forwarding them is ownership transfer, not aliasing;
//   - documented immutable: its type carries an //adhoclint:wireimmutable
//     directive. The rule enforces the documentation: element writes to a
//     value of such a type are flagged unless the value is locally fresh.
//
// Everything else — receiver fields, package state, parameters of unknown
// provenance — is assumed to alias mutable node state and is reported
// with a witness flow chain. A payload built from a *parameter* defers
// the obligation to the callers of the enclosing function (payload-
// forwarding helpers like overlay.(*IndexNode).replicate stay clean; the
// caller that feeds them shared state is flagged at its call site).
//
// Two companion checks close the remaining gaps:
//
//   - mutation-after-send: a payload local that is element-written or
//     passed to a sort after the fabric call that shipped it;
//   - request capture: a handler storing a request-derived reference
//     directly into receiver state.
//
// Suppress a finding with //adhoclint:ignore wireiso(reason).

// copyVerbs are method names treated as deep copies.
var copyVerbs = map[string]bool{"Clone": true, "DeepCopy": true, "Copy": true}

// wireKind classifies a value for the wire-isolation rule.
type wireKind int

const (
	wireSafe  wireKind = iota // fresh, wire-derived, ref-free or documented immutable
	wireStale                 // may alias mutable node state
	wireParam                 // verbatim parameter of the enclosing function
)

// wireState is the analysis result for one expression: its kind, the
// parameter index for wireParam, and the witness chain explaining a
// wireStale verdict (outermost step first).
type wireState struct {
	kind  wireKind
	param int
	why   []string
}

func safeState() *wireState { return &wireState{kind: wireSafe} }
func staleState(why ...string) *wireState {
	return &wireState{kind: wireStale, why: why}
}

// chain renders the witness flow chain of a stale state.
func (s *wireState) chain() string { return strings.Join(s.why, " → ") }

// wireChecker holds the whole-program state of the rule.
type wireChecker struct {
	prog *Program
	reporter

	payload *types.Interface // simnet.Payload, nil when absent

	refFree         map[types.Type]bool          // per-type copy-summary cache
	immutable       map[types.Object]bool        // wireimmutable type names
	summaries       map[*types.Func][]*wireState // per-result return freshness
	inFlight        map[*types.Func]bool         // recursion guard (optimistic)
	freshFns        map[*types.Func]bool         // constructor summaries (all results fresh)
	freshBusy       map[*types.Func]bool         // recursion guard for freshFns
	fieldElemWrites map[types.Object][]token.Pos // field → element-write sites
	fns             map[*types.Func]*wireFn      // per-function fact cache

	obligations []wireOblig
	obligSeen   map[obligKey]bool
}

// wireOblig defers a payload check to the callers of fn: param flows
// verbatim into the wire position described by desc.
type wireOblig struct {
	fn    *types.Func
	param int
	desc  string
	site  string // rendered origin send site, for the witness chain
}

type obligKey struct {
	fn    *types.Func
	param int
}

// checkWireIsolation runs the wireiso rule over the program.
func checkWireIsolation(prog *Program, enabled map[string]bool) []Diagnostic {
	if enabled != nil && !enabled[ruleWireIso] {
		return nil
	}
	c := &wireChecker{
		prog:            prog,
		reporter:        reporter{rule: ruleWireIso, analyzed: prog.analyzedSet()},
		payload:         prog.payloadIface(),
		refFree:         map[types.Type]bool{},
		immutable:       map[types.Object]bool{},
		summaries:       map[*types.Func][]*wireState{},
		inFlight:        map[*types.Func]bool{},
		freshFns:        map[*types.Func]bool{},
		freshBusy:       map[*types.Func]bool{},
		fieldElemWrites: map[types.Object][]token.Pos{},
		fns:             map[*types.Func]*wireFn{},
		obligSeen:       map[obligKey]bool{},
	}
	c.collectFacts()
	for _, node := range prog.allFuncs() {
		// The fabric itself relays opaque payloads by design.
		if c.analyzed[node.pkg] && node.pkg.ImportPath != c.prog.simnetPath {
			c.checkFunc(node.pkg, node.decl)
		}
	}
	c.resolveObligations()
	return c.diags
}

// collectFacts walks the loaded packages once, recording every
// //adhoclint:wireimmutable-annotated type name and, program-wide, every
// element write through a struct field (t.rows[k] = v). A slice- or
// map-typed field with *no* such write and reference-free elements is
// provably immutable after send.
func (c *wireChecker) collectFacts() {
	for _, p := range c.prog.loadedPackages() {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					if c.prog.directiveAt(dirWireImmutable, n.Name.Pos()) != nil {
						if obj := p.Info.Defs[n.Name]; obj != nil {
							c.immutable[obj] = true
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if obj := c.fieldOfElemWrite(p, lhs); obj != nil {
							c.fieldElemWrites[obj] = append(c.fieldElemWrites[obj], lhs.Pos())
						}
					}
				}
				return true
			})
		}
	}
}

// fieldOfElemWrite returns the struct-field object an lvalue writes an
// element of (x.f[i] = v, x.f[i].g = v), or nil.
func (c *wireChecker) fieldOfElemWrite(p *Package, lhs ast.Expr) types.Object {
	for {
		switch e := lhs.(type) {
		case *ast.IndexExpr:
			if sel, ok := unparen(e.X).(*ast.SelectorExpr); ok {
				if v, ok := p.Info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
					return v
				}
			}
			lhs = e.X
		case *ast.SelectorExpr:
			lhs = e.X
		case *ast.StarExpr:
			lhs = e.X
		case *ast.ParenExpr:
			lhs = e.X
		default:
			return nil
		}
	}
}

// fieldEverElemWritten reports whether any element write through the
// field exists anywhere in the program.
func (c *wireChecker) fieldEverElemWritten(obj types.Object) bool {
	return len(c.fieldElemWrites[obj]) > 0
}

// typeRefFree reports whether values of t can be copied by assignment —
// no maps, slices, pointers, interfaces, channels or functions anywhere.
func (c *wireChecker) typeRefFree(t types.Type) bool {
	if t == nil {
		return false
	}
	if got, ok := c.refFree[t]; ok {
		return got
	}
	c.refFree[t] = true // optimistic for recursive types
	free := c.typeRefFreeUncached(t)
	c.refFree[t] = free
	return free
}

func (c *wireChecker) typeRefFreeUncached(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Kind() != types.UnsafePointer
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if !c.typeRefFree(u.Field(i).Type()) {
				return false
			}
		}
		return true
	case *types.Array:
		return c.typeRefFree(u.Elem())
	default:
		return false
	}
}

// typeImmutable reports whether t carries the wireimmutable directive.
// trace.TraceContext carries it implicitly (see observability.go): wire
// contexts are derived with Child, never written through, and the
// immutable-write check enforces exactly that.
func (c *wireChecker) typeImmutable(t types.Type) bool {
	if isTraceContext(t, c.prog.modPath) {
		return true
	}
	named, ok := t.(*types.Named)
	return ok && c.immutable[named.Obj()]
}

// wireSafeType reports whether every value of t is wire-safe by type
// alone.
func (c *wireChecker) wireSafeType(t types.Type) bool {
	return c.typeRefFree(t) || c.typeImmutable(t)
}

// elemWrite is one x[i] = v (or x[i].f = v) statement rooted at a local
// variable.
type elemWrite struct {
	root types.Object // nil when the base is not a plain local
	base ast.Expr     // the indexed expression (IndexExpr.X)
	rhs  ast.Expr     // nil for sort-style in-place mutation
	pos  token.Pos
}

// wireFn caches the per-function dataflow facts: assignments per local,
// element writes, wire-derived variables.
type wireFn struct {
	c    *wireChecker
	pkg  *Package
	decl *ast.FuncDecl
	obj  *types.Func

	params  []types.Object
	assigns map[types.Object][]ast.Expr
	elems   []elemWrite
	wire    map[types.Object]bool
	state   map[types.Object]*wireState
	busy    map[types.Object]bool
}

// fnFor builds (or returns the cached) fact set of one declaration.
func (c *wireChecker) fnFor(p *Package, decl *ast.FuncDecl) *wireFn {
	var obj *types.Func
	if o, ok := p.Info.Defs[decl.Name].(*types.Func); ok {
		obj = o
	}
	if obj != nil {
		if f, ok := c.fns[obj]; ok {
			return f
		}
	}
	f := &wireFn{
		c: c, pkg: p, decl: decl, obj: obj,
		assigns: map[types.Object][]ast.Expr{},
		wire:    map[types.Object]bool{},
		state:   map[types.Object]*wireState{},
		busy:    map[types.Object]bool{},
	}
	for _, field := range decl.Type.Params.List {
		for _, name := range field.Names {
			f.params = append(f.params, p.Info.Defs[name])
		}
	}
	// Payload-typed parameters of a Handler-shaped function are the wire
	// request: they were checked for safety when their sender built them.
	if handlerShape(p, decl, c.prog.simnetPath, c.payload) {
		for _, po := range f.params {
			if po == nil {
				continue
			}
			if isNamedType(po.Type(), c.prog.simnetPath, "Payload") ||
				c.payload != nil && implementsPayload(po.Type(), c.payload) {
				f.wire[po] = true
			}
		}
	}
	f.collectFacts()
	f.propagateWire()
	if obj != nil {
		c.fns[obj] = f
	}
	return f
}

// collectFacts gathers assignment and element-write facts in one pass
// over the body (function literals included: captured-variable writes
// count against the captured variable).
func (f *wireFn) collectFacts() {
	info := f.pkg.Info
	ast.Inspect(f.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			f.recordAssign(n)
		case *ast.RangeStmt:
			// for k, v := range x — key and value derive from x.
			for _, lhs := range []ast.Expr{n.Key, n.Value} {
				if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
					if obj := defOrUse(info, id); obj != nil {
						f.assigns[obj] = append(f.assigns[obj], n.X)
					}
				}
			}
		case *ast.DeclStmt:
			if gd, ok := n.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, name := range vs.Names {
						if i < len(vs.Values) {
							if obj := info.Defs[name]; obj != nil {
								f.assigns[obj] = append(f.assigns[obj], vs.Values[i])
							}
						}
					}
				}
			}
		}
		return true
	})
}

func (f *wireFn) recordAssign(asg *ast.AssignStmt) {
	info := f.pkg.Info
	// Multi-value forms: resp, done, err := net.Call(...) — the response
	// variable of a fabric Call is wire-derived.
	if len(asg.Rhs) == 1 && len(asg.Lhs) > 1 {
		if call, ok := asg.Rhs[0].(*ast.CallExpr); ok {
			if fc := fabricCallAt(f.pkg, call, f.c.prog.simnetPath); fc != nil && fc.kind == "Call" {
				if id, ok := asg.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
					if obj := defOrUse(info, id); obj != nil {
						f.wire[obj] = true
					}
				}
				return
			}
			// a, b := g(): defer to g's per-result summaries via a marker.
			for i, lhs := range asg.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
					if obj := defOrUse(info, id); obj != nil {
						f.assigns[obj] = append(f.assigns[obj], &multiResult{call: call, index: i})
					}
				}
			}
			return
		}
		// x, ok := m[k] / v.(T) / <-ch
		if id, ok := asg.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
			if obj := defOrUse(info, id); obj != nil {
				f.assigns[obj] = append(f.assigns[obj], asg.Rhs[0])
			}
		}
		return
	}
	for i, lhs := range asg.Lhs {
		if i >= len(asg.Rhs) {
			break
		}
		rhs := asg.Rhs[i]
		switch l := unparen(lhs).(type) {
		case *ast.Ident:
			if l.Name == "_" {
				continue
			}
			if obj := defOrUse(info, l); obj != nil {
				f.assigns[obj] = append(f.assigns[obj], rhs)
			}
		case *ast.IndexExpr:
			f.elems = append(f.elems, elemWrite{
				root: exprRootObj(info, l.X), base: l.X, rhs: rhs, pos: l.Pos(),
			})
		case *ast.SelectorExpr:
			// x.f = v through a local pointer/struct: treat as an element
			// write against the root so freshness accounting sees it.
			f.elems = append(f.elems, elemWrite{
				root: exprRootObj(info, l.X), base: l.X, rhs: rhs, pos: l.Pos(),
			})
		case *ast.StarExpr:
			f.elems = append(f.elems, elemWrite{
				root: exprRootObj(info, l.X), base: l.X, rhs: rhs, pos: l.Pos(),
			})
		}
	}
}

// multiResult marks "result #index of call" in an assignment fact. It is
// never part of the real AST; it only occurs as a recorded assignment
// right-hand side.
type multiResult struct {
	ast.Expr
	call  *ast.CallExpr
	index int
}

func (m *multiResult) Pos() token.Pos { return m.call.Pos() }
func (m *multiResult) End() token.Pos { return m.call.End() }

// propagateWire closes the wire-derived set over plain derivations:
// r := req.(T), rr := resp.(RangeResp), e range-of wire value, x := wireY.
func (f *wireFn) propagateWire() {
	for changed := true; changed; {
		changed = false
		for obj, rhss := range f.assigns {
			if f.wire[obj] {
				continue
			}
			derived := len(rhss) > 0
			for _, rhs := range rhss {
				if !f.wireDerivedExpr(rhs) {
					derived = false
					break
				}
			}
			if derived {
				f.wire[obj] = true
				changed = true
			}
		}
	}
}

// wireDerivedExpr reports whether the expression is a pure projection of
// a wire-derived value (selectors, indexes, type asserts, slicing).
func (f *wireFn) wireDerivedExpr(e ast.Expr) bool {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		obj := defOrUse(f.pkg.Info, e)
		return obj != nil && f.wire[obj]
	case *ast.SelectorExpr:
		return f.wireDerivedExpr(e.X)
	case *ast.IndexExpr:
		return f.wireDerivedExpr(e.X)
	case *ast.SliceExpr:
		return f.wireDerivedExpr(e.X)
	case *ast.TypeAssertExpr:
		return f.wireDerivedExpr(e.X)
	case *ast.StarExpr:
		return f.wireDerivedExpr(e.X)
	}
	return false
}

// defOrUse resolves an identifier to its object whether it defines or
// uses it.
func defOrUse(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// exprRootObj walks selectors/indexes to the root identifier's object.
func exprRootObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := unparen(e).(type) {
		case *ast.Ident:
			return defOrUse(info, x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// exprType is the static type of an expression.
func (f *wireFn) exprType(e ast.Expr) types.Type {
	if tv, ok := f.pkg.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

func (f *wireFn) posSuffix(pos token.Pos) string { return posSuffix(f.pkg, pos) }

// paramIndex returns the declaration index of a parameter object, or -1.
func (f *wireFn) paramIndex(obj types.Object) int {
	for i, p := range f.params {
		if p == obj && p != nil {
			return i
		}
	}
	return -1
}

// eval classifies one expression. topLevel marks positions where a
// verbatim parameter becomes a caller obligation instead of a finding.
func (f *wireFn) eval(e ast.Expr, topLevel bool) *wireState {
	e = unparen(e)
	if t := f.exprType(e); t != nil && f.c.wireSafeType(t) {
		return safeState()
	}
	if f.wireDerivedExpr(e) {
		return safeState()
	}
	switch e := e.(type) {
	case *ast.BasicLit, *ast.FuncLit:
		return safeState()
	case *ast.Ident:
		if e.Name == "nil" || e.Name == "true" || e.Name == "false" {
			return safeState()
		}
		obj := defOrUse(f.pkg.Info, e)
		if obj == nil {
			return safeState()
		}
		if i := f.paramIndex(obj); i >= 0 {
			if topLevel {
				return &wireState{kind: wireParam, param: i}
			}
			return staleState(fmt.Sprintf("parameter %s of %s", e.Name, f.display()))
		}
		if _, isVar := obj.(*types.Var); isVar && obj.Parent() != nil && obj.Parent() != obj.Pkg().Scope() {
			return f.varState(obj, e)
		}
		return staleState(fmt.Sprintf("package-level %s", e.Name))
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			v := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			if s := f.eval(v, false); s.kind == wireStale {
				return s
			}
		}
		return safeState()
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return f.eval(e.X, false)
		}
		return safeState()
	case *ast.CallExpr:
		return f.evalCall(e, 0)
	case *ast.SelectorExpr:
		return f.evalSelector(e)
	case *ast.IndexExpr:
		return f.eval(e.X, false)
	case *ast.SliceExpr:
		return f.eval(e.X, false)
	case *ast.StarExpr:
		return f.eval(e.X, false)
	case *ast.TypeAssertExpr:
		return f.eval(e.X, false)
	case *multiResult:
		return f.evalCall(e.call, e.index)
	case *ast.BinaryExpr, *ast.KeyValueExpr:
		return safeState()
	}
	return staleState(fmt.Sprintf("%s (unanalyzed expression)", renderExpr(e)))
}

// varState computes the freshness of a local variable: every assignment
// must be wire-safe and every element write through it must store a
// wire-safe value.
func (f *wireFn) varState(obj types.Object, at *ast.Ident) *wireState {
	if s, ok := f.state[obj]; ok {
		return s
	}
	if f.busy[obj] {
		return safeState() // optimistic on cycles (x = append(x, ...))
	}
	f.busy[obj] = true
	defer func() { f.busy[obj] = false }()

	s := safeState()
	rhss := f.assigns[obj]
	if len(rhss) == 0 {
		// Never assigned in this function: a captured or zero-value var.
		s = staleState(fmt.Sprintf("%s is never freshly assigned in %s", obj.Name(), f.display()))
	}
	for _, rhs := range rhss {
		if skipSelfAppend(f.pkg.Info, rhs, obj) {
			continue
		}
		got := f.eval(rhs, false)
		if got.kind != wireSafe {
			why := got.why
			if got.kind == wireParam {
				why = []string{fmt.Sprintf("parameter %s of %s", obj.Name(), f.display())}
			}
			s = &wireState{kind: wireStale, why: append(
				[]string{fmt.Sprintf("%s assigned%s", obj.Name(), f.posSuffix(rhs.Pos()))}, why...)}
			break
		}
	}
	if s.kind == wireSafe {
		for _, w := range f.elems {
			if w.root != obj {
				continue
			}
			if w.rhs == nil {
				continue
			}
			if t := f.exprType(w.rhs); t != nil && f.c.wireSafeType(t) {
				continue
			}
			if got := f.eval(w.rhs, false); got.kind != wireSafe {
				s = &wireState{kind: wireStale, why: append(
					[]string{fmt.Sprintf("%s element write%s", obj.Name(), f.posSuffix(w.pos))}, got.why...)}
				break
			}
		}
	}
	f.state[obj] = s
	return s
}

// skipSelfAppend recognizes x = append(x, ...) so the self-reference does
// not defeat the variable's own freshness analysis; the appended elements
// are still checked through the normal call path of another assignment or
// of the append itself when the base differs.
func skipSelfAppend(info *types.Info, rhs ast.Expr, obj types.Object) bool {
	call, ok := unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" || info.Uses[id] != nil && info.Uses[id].Pkg() != nil {
		return false
	}
	base := call.Args[0]
	// base may be x or m[k] rooted at x (batches[owner] = append(batches[owner], e)).
	if exprRootObj(info, base) != obj {
		return false
	}
	// Elements must still be safe for the self-append to be neutral.
	for _, arg := range call.Args[1:] {
		tv := info.Types[arg]
		if tv.Type == nil {
			return false
		}
	}
	return true
}

// evalCall classifies a call result (result #index for multi-result
// calls).
func (f *wireFn) evalCall(call *ast.CallExpr, index int) *wireState {
	info := f.pkg.Info
	// Conversions: T(x) shares x's references, so it is as safe as x (or
	// safe outright when T is wire-safe by type).
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if f.c.wireSafeType(tv.Type) || len(call.Args) == 1 && f.eval(call.Args[0], false).kind == wireSafe {
			return safeState()
		}
		return staleState(fmt.Sprintf("conversion %s retains its operand's references", renderExpr(call)))
	}
	// Builtins and deep-copy methods.
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		_, isBuiltin := info.Uses[fun].(*types.Builtin)
		if isBuiltin || info.Uses[fun] == nil {
			switch fun.Name {
			case "append":
				if len(call.Args) > 0 {
					return f.evalAppend(call)
				}
			case "make", "new", "copy", "len", "cap", "min", "max", "delete":
				return safeState()
			}
		}
	case *ast.SelectorExpr:
		// Deep-copy methods are wire-safe regardless of the receiver.
		if copyVerbs[fun.Sel.Name] {
			if _, isFunc := info.Uses[fun.Sel].(*types.Func); isFunc {
				return safeState()
			}
		}
	}
	callee, _ := staticCallee(info, call)
	if callee == nil {
		if t := f.exprType(call); t != nil && f.c.wireSafeType(t) {
			return safeState()
		}
		return staleState(fmt.Sprintf("result of dynamic call %s", renderExpr(call)))
	}
	sum := f.c.summary(callee)
	if index >= len(sum) {
		return safeState()
	}
	got := sum[index]
	switch got.kind {
	case wireSafe:
		return safeState()
	case wireParam:
		// The callee returns its parameter: the result is as safe as the
		// argument we pass.
		if got.param < len(call.Args) {
			return f.eval(call.Args[got.param], false)
		}
		return safeState()
	default:
		return &wireState{kind: wireStale, why: append(
			[]string{fmt.Sprintf("result of %s", funcDisplay(callee))}, got.why...)}
	}
}

// evalAppend handles append(base, elems...): fresh iff the base is fresh
// (or nil) and the elements are wire-safe or reference-free.
func (f *wireFn) evalAppend(call *ast.CallExpr) *wireState {
	base := call.Args[0]
	if id, ok := unparen(base).(*ast.Ident); !ok || id.Name != "nil" {
		if s := f.eval(base, false); s.kind != wireSafe {
			why := s.why
			if s.kind == wireParam {
				why = []string{fmt.Sprintf("parameter base of append in %s", f.display())}
			}
			return &wireState{kind: wireStale, why: append(
				[]string{fmt.Sprintf("append base %s", renderExpr(base))}, why...)}
		}
	}
	for _, arg := range call.Args[1:] {
		if t := f.exprType(arg); t != nil && f.c.wireSafeType(t) {
			continue
		}
		if t := f.exprType(arg); t != nil {
			if sl, ok := t.Underlying().(*types.Slice); ok && call.Ellipsis.IsValid() && f.c.wireSafeType(sl.Elem()) {
				// append(dst, src...) with ref-free elements copies them.
				continue
			}
		}
		if s := f.eval(arg, false); s.kind != wireSafe {
			why := s.why
			if s.kind == wireParam {
				why = []string{fmt.Sprintf("appended parameter in %s", f.display())}
			}
			return &wireState{kind: wireStale, why: append(
				[]string{fmt.Sprintf("appended element %s", renderExpr(arg))}, why...)}
		}
	}
	return safeState()
}

// display renders the enclosing function for witness chains.
func (f *wireFn) display() string {
	if f.obj != nil {
		return funcDisplay(f.obj)
	}
	return f.decl.Name.Name
}

// evalSelector classifies x.f: safe when the whole value is wire-safe by
// type, when x is wire-derived, or when the field is provably immutable
// after send (reference-free elements, no element write anywhere in the
// program). Otherwise it aliases the owner's state.
func (f *wireFn) evalSelector(sel *ast.SelectorExpr) *wireState {
	info := f.pkg.Info
	fieldObj, _ := info.Uses[sel.Sel].(*types.Var)
	if fieldObj != nil && fieldObj.IsField() {
		ft := fieldObj.Type()
		if f.c.wireSafeType(ft) {
			return safeState()
		}
		switch u := ft.Underlying().(type) {
		case *types.Slice:
			if f.c.typeRefFree(u.Elem()) && !f.c.fieldEverElemWritten(fieldObj) {
				return safeState() // never mutated in place anywhere
			}
		case *types.Map:
			if f.c.typeRefFree(u.Key()) && f.c.typeRefFree(u.Elem()) && !f.c.fieldEverElemWritten(fieldObj) {
				return safeState()
			}
		}
		// Field of a freshly built local is fine: nb := x.Clone(); use nb.f.
		if root := exprRootObj(info, sel.X); root != nil {
			if i := f.paramIndex(root); i < 0 {
				if _, isVar := root.(*types.Var); isVar && root.Parent() != nil && root.Parent() != root.Pkg().Scope() {
					if f.varState(root, nil).kind == wireSafe {
						return safeState()
					}
				}
			}
		}
		owner := "node state"
		if t := f.exprType(sel.X); t != nil {
			owner = typeDisplay(t)
		}
		return staleState(fmt.Sprintf("%s aliases mutable state of %s (field %s)",
			renderExpr(sel), owner, sel.Sel.Name))
	}
	// Method value or package symbol.
	if t := f.exprType(sel); t != nil && f.c.wireSafeType(t) {
		return safeState()
	}
	return staleState(fmt.Sprintf("%s aliases shared state", renderExpr(sel)))
}

// freshSummary reports whether callee is a constructor: every result of
// every return statement is itself a locally fresh value. Lets patterns
// like b := NewBinding(); b[k] = v pass the immutable-write check.
func (c *wireChecker) freshSummary(callee *types.Func) bool {
	if got, ok := c.freshFns[callee]; ok {
		return got
	}
	d := c.prog.funcDecl(callee)
	if d == nil {
		return false
	}
	if c.freshBusy[callee] {
		return true // optimistic on recursion
	}
	c.freshBusy[callee] = true
	defer delete(c.freshBusy, callee)

	f := c.fnFor(d.pkg, d.decl)
	fresh, sawReturn := true, false
	ast.Inspect(d.decl.Body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		ret, isRet := n.(*ast.ReturnStmt)
		if !isRet {
			return true
		}
		if len(ret.Results) == 0 {
			fresh = false // naked return: give up
			return true
		}
		sawReturn = true
		for _, r := range ret.Results {
			if !f.freshForWrite(r, map[types.Object]bool{}) {
				fresh = false
			}
		}
		return true
	})
	fresh = fresh && sawReturn
	c.freshFns[callee] = fresh
	return fresh
}

// summary computes the per-result wire-safety of a function's returns,
// memoized — the per-function half of the copy-summary cache.
func (c *wireChecker) summary(callee *types.Func) []*wireState {
	if got, ok := c.summaries[callee]; ok {
		return got
	}
	if c.inFlight[callee] {
		return nil // optimistic on recursion
	}
	d := c.prog.funcDecl(callee)
	if d == nil {
		// No source (stdlib, interface method): classify by result types.
		sig, _ := callee.Type().(*types.Signature)
		if sig == nil {
			return nil
		}
		out := make([]*wireState, sig.Results().Len())
		for i := range out {
			if c.wireSafeType(sig.Results().At(i).Type()) {
				out[i] = safeState()
			} else {
				out[i] = staleState(fmt.Sprintf("opaque result of %s", funcDisplay(callee)))
			}
		}
		c.summaries[callee] = out
		return out
	}
	c.inFlight[callee] = true
	defer delete(c.inFlight, callee)

	f := c.fnFor(d.pkg, d.decl)
	nres := 0
	if sig, ok := callee.Type().(*types.Signature); ok {
		nres = sig.Results().Len()
	}
	out := make([]*wireState, nres)
	for i := range out {
		out[i] = safeState()
	}
	ast.Inspect(d.decl.Body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false // returns inside literals are not this function's
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		if len(ret.Results) != nres {
			return true // naked or delegating return: stay optimistic
		}
		for i, res := range ret.Results {
			if out[i].kind == wireStale {
				continue
			}
			got := f.eval(res, true)
			switch got.kind {
			case wireStale:
				out[i] = &wireState{kind: wireStale, why: append(
					[]string{fmt.Sprintf("return%s", posSuffix(d.pkg, ret.Pos()))}, got.why...)}
			case wireParam:
				if out[i].kind == wireSafe {
					out[i] = got
				}
			}
		}
		return true
	})
	c.summaries[callee] = out
	return out
}

// handlerShape reports whether fn has the simnet Handler result shape —
// HandleCall itself or a dispatch helper. With a non-nil payload
// interface the first result must additionally be a payload (lots of
// ordinary API functions return (T, VTime, error) to thread virtual
// time; only payload-returning ones put their result on the wire).
func handlerShape(p *Package, fn *ast.FuncDecl, simnetPath string, payload *types.Interface) bool {
	res := fn.Type.Results
	if res == nil || len(res.List) != 3 {
		return false
	}
	if countNames(res.List) > 3 {
		return false
	}
	t1 := p.Info.Types[res.List[1].Type].Type
	if !isNamedType(t1, simnetPath, "VTime") {
		return false
	}
	if payload == nil {
		return true
	}
	t0 := p.Info.Types[res.List[0].Type].Type
	if t0 == nil {
		return false
	}
	return isNamedType(t0, simnetPath, "Payload") || implementsPayload(t0, payload)
}

func countNames(fields []*ast.Field) int {
	n := 0
	for _, f := range fields {
		if len(f.Names) == 0 {
			n++
		} else {
			n += len(f.Names)
		}
	}
	return n
}

// checkFunc runs the send-site, response, mutation-after-send and
// request-capture checks over one analyzed declaration.
func (c *wireChecker) checkFunc(p *Package, decl *ast.FuncDecl) {
	f := c.fnFor(p, decl)
	c.checkSends(f)
	c.checkResponses(f)
	c.checkImmutableWrites(f)
	c.checkRequestCapture(f)
}

// checkSends validates the payload argument of every fabric call.
func (c *wireChecker) checkSends(f *wireFn) {
	type sentVar struct {
		obj  types.Object
		name string
		kind string
		pos  token.Pos
	}
	var sent []sentVar
	ast.Inspect(f.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fc := fabricCallAt(f.pkg, call, c.prog.simnetPath)
		if fc == nil {
			return true
		}
		payload := call.Args[3]
		desc := fmt.Sprintf("%s of %q", fc.kind, fc.value)
		if fc.value == "" {
			desc = fc.kind
		}
		c.checkPayloadExpr(f, payload, desc, call.Pos())
		// Remember mutable locals whose memory the payload shares for the
		// mutation-after-send pass: idents in value position (directly,
		// inside composite literals, behind & or an index) — not method
		// receivers or call arguments, whose memory is not shipped.
		for _, id := range payloadRootIdents(payload) {
			obj := defOrUse(f.pkg.Info, id)
			if obj == nil || f.paramIndex(obj) >= 0 {
				continue
			}
			v, isVar := obj.(*types.Var)
			if !isVar || v.IsField() || obj.Parent() == nil || obj.Parent() == obj.Pkg().Scope() {
				continue
			}
			if c.typeRefFree(v.Type()) {
				continue
			}
			sent = append(sent, sentVar{obj: obj, name: id.Name, kind: fc.kind, pos: call.Pos()})
		}
		return true
	})
	if len(sent) == 0 {
		return
	}
	// mutation-after-send: element writes or in-place sorts of a payload
	// local after the fabric call that shipped it.
	for _, w := range f.elems {
		if w.root == nil {
			continue
		}
		for _, sv := range sent {
			if w.root == sv.obj && w.pos > sv.pos {
				c.report(f.pkg, w.pos, fmt.Sprintf(
					"payload %q sent via %s%s is mutated after send; mutate before building the payload or send a copy",
					sv.name, sv.kind, posSuffix(f.pkg, sv.pos)))
			}
		}
	}
	ast.Inspect(f.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isSortCall(f.pkg.Info, call) {
			return true
		}
		for _, arg := range call.Args {
			root := exprRootObj(f.pkg.Info, arg)
			if root == nil {
				continue
			}
			for _, sv := range sent {
				if root == sv.obj && call.Pos() > sv.pos {
					c.report(f.pkg, call.Pos(), fmt.Sprintf(
						"payload %q sent via %s%s is sorted in place after send; sort before building the payload",
						sv.name, sv.kind, posSuffix(f.pkg, sv.pos)))
				}
			}
		}
		return true
	})
}

// payloadRootIdents collects the identifiers whose backing memory a
// payload expression ships by reference.
func payloadRootIdents(e ast.Expr) []*ast.Ident {
	var out []*ast.Ident
	var walk func(ast.Expr)
	walk = func(e ast.Expr) {
		switch e := unparen(e).(type) {
		case *ast.Ident:
			out = append(out, e)
		case *ast.CompositeLit:
			for _, elt := range e.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					walk(kv.Value)
				} else {
					walk(elt)
				}
			}
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				walk(e.X)
			}
		case *ast.IndexExpr:
			walk(e.X)
		case *ast.SliceExpr:
			walk(e.X)
		}
	}
	walk(e)
	return out
}

// isSortCall recognizes sort.* and *Sort* helpers that permute their
// argument in place.
func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	switch fun := unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if pkg, isPkg := info.Uses[id].(*types.PkgName); isPkg && pkg.Imported().Path() == "sort" {
				return true
			}
		}
		return strings.Contains(fun.Sel.Name, "Sort")
	case *ast.Ident:
		return strings.Contains(fun.Name, "Sort")
	}
	return false
}

// checkPayloadExpr validates one wire-bound value, decomposing a
// composite literal so diagnostics name the offending field.
func (c *wireChecker) checkPayloadExpr(f *wireFn, e ast.Expr, desc string, pos token.Pos) {
	e = unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = unparen(u.X)
	}
	if lit, ok := e.(*ast.CompositeLit); ok {
		if t := f.exprType(lit); t != nil {
			if _, isStruct := t.Underlying().(*types.Struct); isStruct {
				litName := typeDisplay(t)
				for _, elt := range lit.Elts {
					v, fieldName := elt, ""
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						v = kv.Value
						if id, ok := kv.Key.(*ast.Ident); ok {
							fieldName = id.Name
						}
					}
					where := litName
					if fieldName != "" {
						where = litName + "." + fieldName
					}
					c.checkWireValue(f, v, fmt.Sprintf("%s sends %s", desc, where), pos)
				}
				return
			}
		}
	}
	c.checkWireValue(f, e, fmt.Sprintf("%s sends %s", desc, renderExpr(e)), pos)
}

// checkWireValue flags a stale value or defers a parameter to callers.
func (c *wireChecker) checkWireValue(f *wireFn, e ast.Expr, desc string, pos token.Pos) {
	s := f.eval(e, true)
	switch s.kind {
	case wireStale:
		c.report(f.pkg, pos, fmt.Sprintf(
			"%s, which may alias mutable node state (flow: %s); deep-copy on send or mark the type //adhoclint:wireimmutable",
			desc, s.chain()))
	case wireParam:
		if f.obj == nil {
			return
		}
		key := obligKey{fn: f.obj, param: s.param}
		if c.obligSeen[key] {
			return
		}
		c.obligSeen[key] = true
		c.obligations = append(c.obligations, wireOblig{
			fn: f.obj, param: s.param, desc: desc,
			site: fmt.Sprintf("%s%s", funcDisplay(f.obj), posSuffix(f.pkg, pos)),
		})
	}
}

// checkResponses validates the first result of every Handler-shaped
// return.
func (c *wireChecker) checkResponses(f *wireFn) {
	if !handlerShape(f.pkg, f.decl, c.prog.simnetPath, c.payload) {
		return
	}
	ast.Inspect(f.decl.Body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) != 3 {
			return true
		}
		c.checkPayloadExpr(f, ret.Results[0],
			fmt.Sprintf("response of %s", f.display()), ret.Pos())
		return true
	})
}

// checkImmutableWrites enforces the wireimmutable convention: element
// writes to a documented-immutable value are only allowed on locally
// fresh copies (nb := b.Clone(); nb[k] = v).
func (c *wireChecker) checkImmutableWrites(f *wireFn) {
	for _, w := range f.elems {
		t := f.exprType(w.base)
		if t == nil || !c.typeImmutable(t) {
			continue
		}
		if !f.freshForWrite(w.base, map[types.Object]bool{}) {
			c.report(f.pkg, w.pos, fmt.Sprintf(
				"element write to documented-immutable %s through a value that may be shared; Clone before mutating",
				typeDisplay(t)))
		}
	}
}

// freshForWrite reports whether the expression is a locally fresh value —
// built by make/new/composite literal/Clone/append-onto-fresh in this
// function. Unlike eval it does not treat documented-immutable types as
// wire-safe: it is the check that keeps the documentation true.
func (f *wireFn) freshForWrite(e ast.Expr, busy map[types.Object]bool) bool {
	info := f.pkg.Info
	switch e := unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		return e.Op == token.AND && f.freshForWrite(e.X, busy)
	case *ast.CallExpr:
		if tv, ok := info.Types[e.Fun]; ok && tv.IsType() {
			return len(e.Args) == 1 && f.freshForWrite(e.Args[0], busy)
		}
		switch fun := unparen(e.Fun).(type) {
		case *ast.Ident:
			if _, b := info.Uses[fun].(*types.Builtin); b || info.Uses[fun] == nil {
				switch fun.Name {
				case "make", "new":
					return true
				case "append":
					return len(e.Args) > 0 && f.freshForWrite(e.Args[0], busy)
				}
			}
		case *ast.SelectorExpr:
			if copyVerbs[fun.Sel.Name] {
				if _, isFunc := info.Uses[fun.Sel].(*types.Func); isFunc {
					return true
				}
			}
		}
		if callee, _ := staticCallee(info, e); callee != nil {
			return f.c.freshSummary(callee)
		}
		return false
	case *ast.Ident:
		if e.Name == "nil" {
			return true
		}
		obj := defOrUse(info, e)
		v, isVar := obj.(*types.Var)
		if !isVar || v.IsField() || f.paramIndex(obj) >= 0 ||
			obj.Parent() == nil || obj.Parent() == obj.Pkg().Scope() {
			return false
		}
		if busy[obj] {
			return true // x = append(x, ...) keeps x fresh
		}
		busy[obj] = true
		defer delete(busy, obj)
		rhss := f.assigns[obj]
		if len(rhss) == 0 {
			return false
		}
		for _, rhs := range rhss {
			if !f.freshForWrite(rhs, busy) {
				return false
			}
		}
		return true
	}
	return false
}

// checkRequestCapture flags a handler storing a request-derived reference
// directly into receiver state.
func (c *wireChecker) checkRequestCapture(f *wireFn) {
	if !handlerShape(f.pkg, f.decl, c.prog.simnetPath, c.payload) {
		return
	}
	recv := recvObj(f.pkg, f.decl)
	if recv == nil {
		return
	}
	for _, w := range f.elems {
		if w.root != recv || w.rhs == nil {
			continue
		}
		if t := f.exprType(w.rhs); t != nil && c.typeRefFree(t) {
			continue
		}
		if f.wireDerivedExpr(w.rhs) {
			c.report(f.pkg, w.pos, fmt.Sprintf(
				"handler stores request-derived reference %s into node state; deep-copy on receive",
				renderExpr(w.rhs)))
		}
	}
}

// recvObj returns the receiver object of a method declaration.
func recvObj(p *Package, fn *ast.FuncDecl) types.Object {
	if fn.Recv == nil || len(fn.Recv.List) != 1 || len(fn.Recv.List[0].Names) != 1 {
		return nil
	}
	return p.Info.Defs[fn.Recv.List[0].Names[0]]
}

// resolveObligations walks deferred parameter checks up the call graph:
// each caller of a payload-forwarding function must feed it a wire-safe
// argument.
func (c *wireChecker) resolveObligations() {
	callers := c.prog.analyzedFuncs()
	for i := 0; i < len(c.obligations); i++ {
		ob := c.obligations[i]
		for _, node := range callers {
			for _, site := range node.calls {
				call := site.call
				if site.callee != ob.fn || ob.param >= len(call.Args) {
					continue
				}
				f := c.fnFor(node.pkg, node.decl)
				s := f.eval(call.Args[ob.param], true)
				switch s.kind {
				case wireStale:
					c.report(node.pkg, site.pos, fmt.Sprintf(
						"argument %s flows to the wire through %s (as %s), and may alias mutable node state (flow: %s); deep-copy before passing",
						renderExpr(call.Args[ob.param]), funcDisplay(ob.fn), ob.desc, s.chain()))
				case wireParam:
					if f.obj == nil {
						continue
					}
					key := obligKey{fn: f.obj, param: s.param}
					if !c.obligSeen[key] {
						c.obligSeen[key] = true
						c.obligations = append(c.obligations, wireOblig{
							fn: f.obj, param: s.param, desc: ob.desc, site: ob.site,
						})
					}
				}
			}
		}
	}
}

// renderExpr prints an expression compactly for diagnostics.
func renderExpr(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return renderExpr(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return renderExpr(e.X) + "[" + renderExpr(e.Index) + "]"
	case *ast.SliceExpr:
		return renderExpr(e.X) + "[...]"
	case *ast.CallExpr:
		return renderExpr(e.Fun) + "(...)"
	case *ast.TypeAssertExpr:
		return renderExpr(e.X) + ".(T)"
	case *ast.StarExpr:
		return "*" + renderExpr(e.X)
	case *ast.UnaryExpr:
		return e.Op.String() + renderExpr(e.X)
	case *ast.CompositeLit:
		return renderExpr(e.Type) + "{...}"
	case *ast.ArrayType, *ast.MapType, *ast.StructType:
		return "T"
	case *ast.ParenExpr:
		return renderExpr(e.X)
	case *ast.BasicLit:
		return e.Value
	case *multiResult:
		return renderExpr(e.call)
	}
	if e == nil {
		return "?"
	}
	return fmt.Sprintf("%T", e)
}
