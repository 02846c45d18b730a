package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The hot-path allocation analysis (rule "alloc") finds per-message heap
// allocations on the fabric hot set: the functions transitively reachable
// from every HandleCall dispatch entry point, plus the functions that
// reach the fabric (the program model's fabric-reach closure, with
// hotexempt functions as barriers). Work in that set runs
// once per RPC message, so a stray allocation there multiplies by the
// message count of every experiment. Inside hot functions the rule flags:
//
//   - fmt.Sprintf / Sprint / Sprintln — reflection-driven formatting that
//     allocates a fresh string per message;
//   - string += / s = s + x accumulation — each step re-allocates the
//     accumulated string;
//   - append-growth in a non-nested range loop whose target slice was
//     declared without a capacity hint, and map population in such a loop
//     when the map was made without a size hint — the loop's trip count
//     is right there to presize with;
//   - boxing a concrete value into an empty interface parameter (fmt,
//     errors, sort and encoding/gob callees excepted: their boxing is
//     inherent to the API and once per call);
//   - closures allocated inside loops (one heap closure per iteration;
//     the branch literal handed directly to simnet.Parallel is the
//     sanctioned fan-out pattern and exempt).
//
// Every finding carries a witness chain from the fabric entry point, so
// the reader can see *why* the function is hot. Deliberately cold helpers
// (setup, reporting, test support) opt out of the hot set — and stop the
// reachability closure — with a //adhoclint:hotexempt directive on the
// declaration; individual findings take //adhoclint:ignore alloc(reason).
// The rule applies to internal/ packages except internal/simnet (whose
// fabric bookkeeping is the cost model, not a message payload) and
// internal/experiments (drivers whose allocations are once per run, not
// per message, even though they issue fabric calls).

// checkAlloc runs the alloc rule over the program.
func checkAlloc(prog *Program, enabled map[string]bool) []Diagnostic {
	if enabled != nil && !enabled[ruleAlloc] {
		return nil
	}
	a := &allocChecker{
		prog:        prog,
		reporter:    reporter{rule: ruleAlloc, analyzed: prog.analyzedSet()},
		exempt:      map[*types.Func]bool{},
		entries:     map[*types.Func]bool{},
		reachParent: map[*types.Func]*types.Func{},
		witnesses:   map[*types.Func]string{},
	}
	for _, node := range prog.allFuncs() {
		if prog.directiveAt(dirHotExempt, node.decl.Pos()) != nil {
			a.exempt[node.obj] = true
		}
	}
	a.fabric = prog.computeReach(a.exempt)
	a.computeHandlerReach()
	for _, node := range prog.allFuncs() {
		if a.analyzed[node.pkg] && a.inScope(node.pkg) && a.hot(node.obj) {
			a.checkFunc(node.pkg, node.decl, node.obj)
		}
	}
	return a.diags
}

type allocChecker struct {
	prog *Program
	reporter
	exempt map[*types.Func]bool // //adhoclint:hotexempt declarations
	fabric *fabricReach         // reach with the exempt functions as barriers

	entries     map[*types.Func]bool        // HandleCall dispatch entry points
	reachParent map[*types.Func]*types.Func // BFS tree edge back toward the entry

	witnesses map[*types.Func]string
}

// inScope limits reporting to internal/ packages outside internal/simnet
// and the internal/experiments drivers.
func (a *allocChecker) inScope(p *Package) bool {
	return internalPackage(p) && p.ImportPath != a.prog.simnetPath &&
		p.ImportPath != a.prog.modPath+"/internal/experiments"
}

// hot reports whether the function belongs to the fabric hot set.
func (a *allocChecker) hot(obj *types.Func) bool {
	return a.fabric.touches(obj) || a.hotByHandler(obj)
}

// computeHandlerReach walks the static call graph breadth-first from every
// HandleCall dispatch entry point, recording a parent edge per function —
// the upward half of the witness chain. Exempt functions are reachability
// barriers; trace- and flight-package callees are fabric-neutral by contract.
func (a *allocChecker) computeHandlerReach() {
	var queue []*funcNode
	for _, node := range a.prog.allFuncs() {
		if !a.exempt[node.obj] && a.prog.isHandler(node) {
			a.entries[node.obj] = true
			queue = append(queue, node)
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, c := range cur.calls {
			callee := a.prog.funcDecl(c.callee)
			if callee == nil || a.hotByHandler(c.callee) || a.exempt[c.callee] ||
				observabilityNeutral(c.callee, a.prog.modPath) {
				continue
			}
			a.reachParent[c.callee] = cur.obj
			queue = append(queue, callee)
		}
	}
}

// hotByHandler reports whether the function is reachable from a HandleCall
// entry point.
func (a *allocChecker) hotByHandler(obj *types.Func) bool {
	return a.entries[obj] || a.reachParent[obj] != nil
}

// witness renders why a function is hot: the call chain from a HandleCall
// entry point, or the chain down to the fabric call it performs.
func (a *allocChecker) witness(obj *types.Func) string {
	if w, ok := a.witnesses[obj]; ok {
		return w
	}
	w := a.buildWitness(obj)
	a.witnesses[obj] = w
	return w
}

const witnessMaxHops = 6

func (a *allocChecker) buildWitness(obj *types.Func) string {
	if a.entries[obj] {
		return "HandleCall dispatch entry point"
	}
	if a.hotByHandler(obj) {
		var chain []string
		for cur := obj; cur != nil; cur = a.reachParent[cur] {
			chain = append(chain, funcDisplay(cur))
			if len(chain) > witnessMaxHops {
				chain = append(chain, "…")
				break
			}
		}
		// Reverse into entry-to-function order.
		for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
			chain[i], chain[j] = chain[j], chain[i]
		}
		return "reached from " + strings.Join(chain, " → ")
	}
	if fc := a.fabric.direct[obj]; fc != nil {
		return fmt.Sprintf("performs fabric %s of %q", fc.kind, fc.value)
	}
	var chain []string
	cur := obj
	for {
		chain = append(chain, funcDisplay(cur))
		next, ok := a.fabric.via[cur]
		if !ok {
			break
		}
		cur = next
		if fc := a.fabric.direct[cur]; fc != nil {
			chain = append(chain, funcDisplay(cur))
			return fmt.Sprintf("reaches fabric %s of %q via %s",
				fc.kind, fc.value, strings.Join(chain, " → "))
		}
		if len(chain) > witnessMaxHops {
			chain = append(chain, "…")
			break
		}
	}
	return "reaches the fabric via " + strings.Join(chain, " → ")
}

// reportHot emits one finding with the hot-path witness appended.
func (a *allocChecker) reportHot(p *Package, pos token.Pos, obj *types.Func, msg string) {
	a.report(p, pos, fmt.Sprintf("%s (hot path: %s)", msg, a.witness(obj)))
}

// checkFunc runs the per-function allocation checks over one hot function.
func (a *allocChecker) checkFunc(p *Package, fn *ast.FuncDecl, obj *types.Func) {
	loops := collectLoops(fn.Body)
	a.checkFmtAllocs(p, fn, obj)
	a.checkStringConcat(p, fn, obj)
	a.checkLoopGrowth(p, fn, obj, loops)
	a.checkBoxing(p, fn, obj)
	a.checkLoopClosures(p, fn, obj, loops)
}

// loopInfo is one for/range loop body extent.
type loopInfo struct {
	node  ast.Stmt // *ast.ForStmt or *ast.RangeStmt
	body  *ast.BlockStmt
	outer bool // not nested inside another loop of the same function
}

// collectLoops gathers every loop of the body and marks the outermost ones.
func collectLoops(body *ast.BlockStmt) []*loopInfo {
	var loops []*loopInfo
	ast.Inspect(body, func(n ast.Node) bool {
		switch l := n.(type) {
		case *ast.ForStmt:
			loops = append(loops, &loopInfo{node: l, body: l.Body})
		case *ast.RangeStmt:
			loops = append(loops, &loopInfo{node: l, body: l.Body})
		}
		return true
	})
	for _, l := range loops {
		l.outer = true
		for _, other := range loops {
			if other != l && other.body.Pos() <= l.node.Pos() && l.node.End() <= other.body.End() {
				l.outer = false
				break
			}
		}
	}
	return loops
}

// inAnyLoop reports whether the position falls inside some loop body.
func inAnyLoop(loops []*loopInfo, pos token.Pos) bool {
	for _, l := range loops {
		if l.body.Pos() <= pos && pos < l.body.End() {
			return true
		}
	}
	return false
}

// checkFmtAllocs flags reflection-driven fmt string formatting.
func (a *allocChecker) checkFmtAllocs(p *Package, fn *ast.FuncDecl, obj *types.Func) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee, _ := staticCallee(p.Info, call)
		if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "fmt" {
			return true
		}
		switch callee.Name() {
		case "Sprintf", "Sprint", "Sprintln":
			a.reportHot(p, call.Pos(), obj, fmt.Sprintf(
				"fmt.%s allocates a formatted string per message; use strconv, concatenation or an appended buffer",
				callee.Name()))
		}
		return true
	})
}

// checkStringConcat flags string accumulation via += or s = s + x, which
// re-allocates the accumulated string on every step (a single chained
// concatenation is one runtime call and is fine).
func (a *allocChecker) checkStringConcat(p *Package, fn *ast.FuncDecl, obj *types.Func) {
	isString := func(e ast.Expr) bool {
		t := p.Info.TypeOf(e)
		if t == nil {
			return false
		}
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch asg.Tok {
		case token.ADD_ASSIGN:
			if isString(asg.Lhs[0]) {
				a.reportHot(p, asg.Pos(), obj,
					"string += re-allocates the accumulated string on every step; build the value with one concatenation or an appended buffer")
			}
		case token.ASSIGN:
			if len(asg.Lhs) != 1 || len(asg.Rhs) != 1 || !isString(asg.Lhs[0]) {
				return true
			}
			bin, ok := unparen(asg.Rhs[0]).(*ast.BinaryExpr)
			if !ok || bin.Op != token.ADD {
				return true
			}
			lhsObj := exprRootObj(p.Info, asg.Lhs[0])
			if lhsObj == nil {
				return true
			}
			// Leftmost operand of the concatenation chain.
			left := bin.X
			for {
				inner, ok := unparen(left).(*ast.BinaryExpr)
				if !ok || inner.Op != token.ADD {
					break
				}
				left = inner.X
			}
			if exprRootObj(p.Info, left) == lhsObj {
				a.reportHot(p, asg.Pos(), obj,
					"s = s + … re-allocates the accumulated string on every step; build the value with one concatenation or an appended buffer")
			}
		}
		return true
	})
}

// declSizing records how a slice or map variable was created.
type declSizing int

const (
	sizedDecl  declSizing = iota // capacity/size hint present
	noCapSlice                   // var s []T, s := []T{}, make([]T, 0)
	noHintMap                    // m := map[K]V{}, make(map[K]V)
)

// checkLoopGrowth flags append-growth and map population in outermost
// range loops when the container was created without a size hint: the
// loop's trip count was available to presize with.
func (a *allocChecker) checkLoopGrowth(p *Package, fn *ast.FuncDecl, obj *types.Func, loops []*loopInfo) {
	sizing := map[types.Object]declSizing{}
	record := func(id *ast.Ident, form declSizing) {
		if o := p.Info.Defs[id]; o != nil {
			sizing[o] = form
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ValueSpec:
			if len(n.Values) != 0 {
				return true
			}
			for _, name := range n.Names {
				if o := p.Info.Defs[name]; o != nil {
					if _, ok := o.Type().Underlying().(*types.Slice); ok {
						sizing[o] = noCapSlice
					}
				}
			}
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				record(id, rhsSizing(p, n.Rhs[i]))
			}
		}
		return true
	})

	for _, l := range loops {
		rng, ok := l.node.(*ast.RangeStmt)
		if !ok || !l.outer {
			continue
		}
		for _, stmt := range rng.Body.List {
			asg, ok := stmt.(*ast.AssignStmt)
			if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
				continue
			}
			// x = append(x, …) growing an unsized slice.
			if call, ok := unparen(asg.Rhs[0]).(*ast.CallExpr); ok {
				if id, ok := unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" && len(call.Args) > 0 {
					target := exprRootObj(p.Info, call.Args[0])
					if target != nil && sizing[target] == noCapSlice && declaredBefore(target, rng) {
						a.reportHot(p, asg.Pos(), obj, fmt.Sprintf(
							"%s grows by append on every iteration of this range loop but was declared without capacity; presize with make(…, 0, len(…))",
							target.Name()))
					}
					continue
				}
			}
			// m[k] = v populating an unsized map.
			if idx, ok := unparen(asg.Lhs[0]).(*ast.IndexExpr); ok {
				target := exprRootObj(p.Info, idx.X)
				if target != nil && sizing[target] == noHintMap && declaredBefore(target, rng) {
					a.reportHot(p, asg.Pos(), obj, fmt.Sprintf(
						"map %s is populated on every iteration of this range loop but was made without a size hint; presize with make(…, len(…))",
						target.Name()))
				}
			}
		}
	}
}

// rhsSizing classifies a definition's right-hand side.
func rhsSizing(p *Package, rhs ast.Expr) declSizing {
	switch e := unparen(rhs).(type) {
	case *ast.CompositeLit:
		if len(e.Elts) != 0 {
			return sizedDecl
		}
		t := p.Info.TypeOf(e)
		if t == nil {
			return sizedDecl
		}
		switch t.Underlying().(type) {
		case *types.Slice:
			return noCapSlice
		case *types.Map:
			return noHintMap
		}
	case *ast.CallExpr:
		id, ok := unparen(e.Fun).(*ast.Ident)
		if !ok || id.Name != "make" || len(e.Args) == 0 {
			return sizedDecl
		}
		t := p.Info.TypeOf(e)
		if t == nil {
			return sizedDecl
		}
		switch t.Underlying().(type) {
		case *types.Slice:
			// make([]T, 0) has no capacity; any explicit capacity (or a
			// non-zero length) is a sizing decision.
			if len(e.Args) == 2 && isZeroLit(p, e.Args[1]) {
				return noCapSlice
			}
		case *types.Map:
			if len(e.Args) == 1 {
				return noHintMap
			}
		}
	}
	return sizedDecl
}

func isZeroLit(p *Package, e ast.Expr) bool {
	tv := p.Info.Types[e]
	if tv.Value == nil {
		return false
	}
	return tv.Value.ExactString() == "0"
}

// declaredBefore reports whether the object's declaration precedes the
// loop (a container created inside the loop body is per-iteration state,
// not growth across iterations).
func declaredBefore(obj types.Object, loop ast.Node) bool {
	return obj.Pos() < loop.Pos()
}

// checkBoxing flags concrete values boxed into empty-interface parameters.
// fmt, errors, sort and encoding/gob callees are exempt — boxing there is
// inherent to the API and happens once per call, and the fmt cases are
// covered by the formatting check — as are //adhoclint:hotexempt callees:
// arguments handed to a deliberately cold helper are the cold path's cost.
func (a *allocChecker) checkBoxing(p *Package, fn *ast.FuncDecl, obj *types.Func) {
	exemptPkgs := map[string]bool{"fmt": true, "errors": true, "sort": true, "encoding/gob": true}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee, _ := staticCallee(p.Info, call)
		if callee == nil || callee.Pkg() == nil || exemptPkgs[callee.Pkg().Path()] || a.exempt[callee] {
			return true
		}
		sig, ok := callee.Type().(*types.Signature)
		if !ok {
			return true
		}
		for i, arg := range call.Args {
			var param types.Type
			switch {
			case sig.Variadic() && i >= sig.Params().Len()-1:
				if s, ok := sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice); ok {
					param = s.Elem()
				}
			case i < sig.Params().Len():
				param = sig.Params().At(i).Type()
			}
			iface, ok := param.(*types.Interface)
			if !ok || !iface.Empty() {
				continue
			}
			at := p.Info.Types[arg].Type
			if at == nil || types.IsInterface(at) || p.Info.Types[arg].IsNil() {
				continue
			}
			a.reportHot(p, arg.Pos(), obj, fmt.Sprintf(
				"%s is boxed into an empty interface argument of %s, allocating per message; keep the hot path monomorphic",
				typeDisplay(at), funcDisplay(callee)))
		}
		return true
	})
}

// checkLoopClosures flags closures allocated inside loops — one heap
// closure per iteration. The branch literal handed directly to
// simnet.Parallel is the sanctioned fan-out pattern and exempt.
func (a *allocChecker) checkLoopClosures(p *Package, fn *ast.FuncDecl, obj *types.Func, loops []*loopInfo) {
	parallelArgs := map[*ast.FuncLit]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if callee, _ := staticCallee(p.Info, call); !a.prog.isSimnetFunc(callee, "Parallel") {
			return true
		}
		for _, arg := range call.Args {
			if lit, ok := unparen(arg).(*ast.FuncLit); ok {
				parallelArgs[lit] = true
			}
		}
		return true
	})
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok || parallelArgs[lit] || !inAnyLoop(loops, lit.Pos()) {
			return true
		}
		a.reportHot(p, lit.Pos(), obj,
			"closure allocated inside a loop captures its environment on every iteration; hoist it out of the loop")
		return true
	})
}
