package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// The fault-soundness analysis (rule "faultpath") classifies every fabric
// interaction by its failure disposition and checks that the disposition
// is either evident from the code or declared with an
// //adhoclint:faultpath(disposition, reason) directive. Deterministic
// fault injection (simnet.FaultPlan) makes every Call/Send/Transfer
// fallible; this rule makes the tree say, site by site, what happens when
// one fails:
//
//   - a fabric call whose error is discarded is a fire-and-forget
//     notification and must say so: //adhoclint:faultpath(fire-and-forget,
//     reason) on the call's line or the line above;
//   - a function that mutates caller-visible state (its receiver, a
//     pointer/map/slice argument, or anything derived from them) before a
//     fallible send whose error it propagates must carry a compensation
//     path, declared //adhoclint:faultpath(compensated, reason) on its
//     declaration — otherwise a failure surfaces with the mutation already
//     applied and nobody rolls it back;
//   - every simnet.Parallel fan-out must declare whether one failed branch
//     aborts the whole operation (abort-all) or the survivors' results are
//     kept (collect-partial, with the repair story as the reason);
//   - a method invoked inside simnet.Retry is re-delivered after lost
//     replies, so its handler must be read-only — or deduplicate
//     re-deliveries and carry //adhoclint:faultpath(idempotent, reason) on
//     its Method* constant;
//   - the operation closure handed to simnet.Retry receives the attempt
//     time as its parameter; its fabric calls must depart at that time, or
//     the FailTimeout charged to failed attempts never reaches the
//     critical path.
//
// A function whose writes are harmless when the surrounding operation
// fails — monotone counters and ID allocators, cache fills and
// invalidations, memoized views, deterministic repair — declares
// //adhoclint:faultpath(benign, reason) on its declaration; calls to it do
// not count as mutations for the mutate-before-send and retried-handler
// checks.
//
// Dispositions: fire-and-forget, abort-all, collect-partial, idempotent,
// compensated, benign. All but abort-all require a reason. The rule covers
// internal/ and cmd/ packages except internal/simnet (the fault model
// itself), internal/experiments (drivers own the whole simulated world; an
// aborted run leaves no surviving state to compensate) and cmd/adhoclint.

// The faultpath dispositions.
const (
	dispFireAndForget  = "fire-and-forget"
	dispAbortAll       = "abort-all"
	dispCollectPartial = "collect-partial"
	dispIdempotent     = "idempotent"
	dispCompensated    = "compensated"
	dispBenign         = "benign"
)

var faultDispositions = []string{
	dispFireAndForget, dispAbortAll, dispCollectPartial, dispIdempotent, dispCompensated, dispBenign,
}

// faultDisposition splits a faultpath directive's "(disposition, reason)"
// argument; a malformed directive yields an empty disposition.
func faultDisposition(d *directive) (disposition, reason string) {
	disp, reason, _ := strings.Cut(d.arg(), ",")
	return strings.TrimSpace(disp), strings.TrimSpace(reason)
}

// checkFaultPath runs the faultpath rule over the program.
func checkFaultPath(prog *Program, enabled map[string]bool) []Diagnostic {
	if enabled != nil && !enabled[ruleFaultPath] {
		return nil
	}
	c := &faultpathChecker{
		prog:     prog,
		reporter: reporter{rule: ruleFaultPath, analyzed: prog.analyzedSet()},
		payload:  prog.payloadIface(),
		reach:    prog.reach(),
		mutates:  map[*types.Func]*mutInfo{},
		retried:  map[string][]*retrySite{},
	}
	c.computeMutates()
	c.validateDirectives()
	for _, node := range prog.allFuncs() {
		if !c.analyzed[node.pkg] || !c.inScope(node.pkg) {
			continue
		}
		p, fn := node.pkg, node.decl
		c.checkDiscardedErrors(p, fn)
		c.checkMutateBeforeSend(p, fn)
		c.checkParallelSites(p, fn)
		c.checkRetrySites(p, fn)
	}
	c.checkRetriedHandlers()
	return c.diags
}

type faultpathChecker struct {
	prog *Program
	reporter
	payload *types.Interface
	reach   *fabricReach
	mutates map[*types.Func]*mutInfo
	retried map[string][]*retrySite // method wire string → Retry sites
}

// mutInfo records how a function mutates caller-visible state: a direct
// write, or a call into another mutating function.
type mutInfo struct {
	pos token.Pos
	via *types.Func // nil when the write is direct
}

// retrySite is one simnet.Retry call whose closure invokes a method.
type retrySite struct {
	pkg  *Package
	pos  token.Pos
	encl *types.Func
}

// inScope limits the rule to internal/ and cmd/ packages, excluding the
// fault model itself, the experiment drivers and the linter.
func (c *faultpathChecker) inScope(p *Package) bool {
	mod := c.prog.modPath
	switch p.ImportPath {
	case mod + "/internal/simnet", mod + "/internal/experiments", mod + "/cmd/adhoclint":
		return false
	}
	return internalPackage(p) || cmdPackage(p, mod)
}

// computeMutates closes "mutates caller-visible state" over static calls,
// level by level, so a witness step always points at a function settled
// at an earlier level. Functions declared faultpath(benign, ...) are
// excluded: their writes are harmless when the surrounding operation
// fails.
func (c *faultpathChecker) computeMutates() {
	var candidates []*funcNode
	for _, node := range c.prog.allFuncs() {
		if c.funcDisposition(node.decl) != dispBenign {
			candidates = append(candidates, node)
		}
	}
	for {
		next := map[*types.Func]*mutInfo{}
		for _, node := range candidates {
			if c.mutates[node.obj] != nil {
				continue
			}
			if m := c.firstMutation(node.pkg, node.decl.Body, declTaint(node.pkg, node.decl)); m != nil {
				next[node.obj] = m
			}
		}
		if len(next) == 0 {
			return
		}
		for obj, m := range next {
			c.mutates[obj] = m
		}
	}
}

// declTaint seeds the caller-visible roots of a declaration: the receiver
// and every parameter of pointer, map or slice type.
func declTaint(p *Package, fn *ast.FuncDecl) map[types.Object]bool {
	taint := map[types.Object]bool{}
	if fn.Recv != nil {
		for _, field := range fn.Recv.List {
			for _, name := range field.Names {
				if obj := p.Info.Defs[name]; obj != nil {
					taint[obj] = true
				}
			}
		}
	}
	for _, field := range fn.Type.Params.List {
		for _, name := range field.Names {
			obj := p.Info.Defs[name]
			if obj == nil {
				continue
			}
			switch obj.Type().Underlying().(type) {
			case *types.Pointer, *types.Map, *types.Slice:
				taint[obj] = true
			}
		}
	}
	return taint
}

// firstMutation finds the earliest write to caller-visible state inside
// body: a direct assignment/delete through a tainted root, or a call into
// a mutating function on a tainted receiver or argument. Locals derived
// from tainted roots are tainted too; locals built fresh are not.
func (c *faultpathChecker) firstMutation(p *Package, body ast.Node, taint map[types.Object]bool) *mutInfo {
	// Propagate taint through derivations: `node := s.nodes[addr]` makes
	// node an alias of receiver state.
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			asg, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			mark := func(lhs ast.Expr) {
				if id, ok := unparen(lhs).(*ast.Ident); ok {
					if obj := defOrUse(p.Info, id); obj != nil && !taint[obj] {
						taint[obj] = true
						changed = true
					}
				}
			}
			derived := func(rhs ast.Expr) bool {
				switch unparen(rhs).(type) {
				case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr, *ast.UnaryExpr:
					obj := exprRootObj(p.Info, rhs)
					return obj != nil && taint[obj]
				}
				return false
			}
			if len(asg.Rhs) == 1 && len(asg.Lhs) > 1 {
				if derived(asg.Rhs[0]) {
					for _, lhs := range asg.Lhs {
						mark(lhs)
					}
				}
				return true
			}
			for i, lhs := range asg.Lhs {
				if i < len(asg.Rhs) && derived(asg.Rhs[i]) {
					mark(lhs)
				}
			}
			return true
		})
	}

	var first *mutInfo
	record := func(m *mutInfo) {
		if first == nil || m.pos < first.pos {
			first = m
		}
	}
	rootTainted := func(e ast.Expr) bool {
		obj := exprRootObj(p.Info, e)
		return obj != nil && taint[obj]
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				switch unparen(lhs).(type) {
				case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
					if rootTainted(lhs) {
						record(&mutInfo{pos: lhs.Pos()})
					}
				}
			}
		case *ast.IncDecStmt:
			switch unparen(n.X).(type) {
			case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
				if rootTainted(n.X) {
					record(&mutInfo{pos: n.X.Pos()})
				}
			}
		case *ast.CallExpr:
			if id, ok := unparen(n.Fun).(*ast.Ident); ok && id.Name == "delete" && len(n.Args) > 0 {
				if rootTainted(n.Args[0]) {
					record(&mutInfo{pos: n.Pos()})
				}
				return true
			}
			callee, _ := staticCallee(p.Info, n)
			if callee == nil || c.mutates[callee] == nil {
				return true
			}
			hit := false
			if sel, ok := unparen(n.Fun).(*ast.SelectorExpr); ok && rootTainted(sel.X) {
				hit = true
			}
			for _, arg := range n.Args {
				if hit {
					break
				}
				if rootTainted(arg) {
					hit = true
				}
			}
			if hit {
				record(&mutInfo{pos: n.Pos(), via: callee})
			}
		}
		return true
	})
	return first
}

// mutChain renders how a mutation reaches its write: "via A → B" for
// call-carried mutations, "" for direct writes.
func (c *faultpathChecker) mutChain(m *mutInfo) string {
	if m == nil || m.via == nil {
		return ""
	}
	var chain []string
	for cur := m.via; cur != nil; {
		chain = append(chain, funcDisplay(cur))
		next := c.mutates[cur]
		if next == nil || next.via == nil || len(chain) > witnessMaxHops {
			break
		}
		cur = next.via
	}
	return " (via " + strings.Join(chain, " → ") + ")"
}

// faultDispositionAt returns the disposition of the faultpath directive
// attached to a position (its line or the line above); declared is false
// when there is none.
func faultDispositionAt(prog *Program, pos token.Pos) (disp string, declared bool) {
	d := prog.directiveAt(dirFaultPath, pos)
	if d == nil {
		return "", false
	}
	disp, _ = faultDisposition(d)
	return disp, true
}

// funcDisposition returns the disposition declared for a function: by a
// faultpath directive in its doc comment or on the line above the
// declaration.
func (c *faultpathChecker) funcDisposition(fn *ast.FuncDecl) string {
	d := c.prog.directiveAt(dirFaultPath, fn.Pos())
	if fn.Doc != nil {
		for _, cm := range fn.Doc.List {
			if doc := c.prog.directiveAt(dirFaultPath, cm.Pos()); doc != nil && doc.pos == cm.Pos() {
				d = doc
				break
			}
		}
	}
	if d == nil {
		return ""
	}
	disp, _ := faultDisposition(d)
	return disp
}

// validateDirectives reports malformed directives of the analyzed,
// in-scope packages: unknown dispositions and missing reasons. abort-all
// is self-explanatory; every other disposition states a claim the code
// cannot show and must say why it holds.
func (c *faultpathChecker) validateDirectives() {
	for _, d := range c.prog.directives().sorted(dirFaultPath) {
		if !c.inScope(d.pkg) {
			continue
		}
		disp, reason := faultDisposition(d)
		if !slices.Contains(faultDispositions, disp) {
			c.report(d.pkg, d.pos, fmt.Sprintf(
				"unknown faultpath disposition %q (have: %s)",
				disp, strings.Join(faultDispositions, ", ")))
			continue
		}
		if reason == "" && disp != dispAbortAll {
			c.report(d.pkg, d.pos, fmt.Sprintf(
				"faultpath(%s) requires a reason explaining why the disposition is sound", disp))
		}
	}
}

// checkDiscardedErrors flags fabric calls whose error result is dropped
// without a fire-and-forget declaration.
func (c *faultpathChecker) checkDiscardedErrors(p *Package, fn *ast.FuncDecl) {
	handled := map[*ast.CallExpr]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		var call *ast.CallExpr
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				return true
			}
			rhs, ok := n.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			fc := fabricCallAt(p, rhs, c.prog.simnetPath)
			if fc == nil {
				return true
			}
			handled[rhs] = true
			errPos := 1 // Send/Transfer: (VTime, error)
			if fc.kind == "Call" {
				errPos = 2 // (Payload, VTime, error)
			}
			if errPos >= len(n.Lhs) || !isBlank(n.Lhs[errPos]) {
				return true
			}
			call = rhs
		case *ast.ExprStmt:
			rhs, ok := n.X.(*ast.CallExpr)
			if !ok || handled[rhs] || fabricCallAt(p, rhs, c.prog.simnetPath) == nil {
				return true
			}
			call = rhs
		default:
			return true
		}
		fc := fabricCallAt(p, call, c.prog.simnetPath)
		disp, declared := faultDispositionAt(c.prog, call.Pos())
		switch {
		case !declared:
			c.report(p, call.Pos(), fmt.Sprintf(
				"the error of %s of %q is discarded with no declared fault disposition; handle it or annotate //adhoclint:faultpath(fire-and-forget, reason)",
				fc.kind, fc.value))
		case disp != dispFireAndForget:
			c.report(p, call.Pos(), fmt.Sprintf(
				"faultpath(%s) does not cover a discarded error; a deliberately unacknowledged %s needs faultpath(fire-and-forget, reason)",
				disp, fc.kind))
		}
		return true
	})
}

// checkMutateBeforeSend flags functions that mutate caller-visible state
// and afterwards perform a fallible send whose error they propagate,
// without declaring a compensation path. Handlers are exempt: their
// mutation is the operation itself, and the retried-handler check governs
// their re-delivery semantics.
func (c *faultpathChecker) checkMutateBeforeSend(p *Package, fn *ast.FuncDecl) {
	if fn.Name.Name == "HandleCall" || handlerShape(p, fn, c.prog.simnetPath, c.payload) {
		return
	}
	if !returnsError(p, fn) {
		return
	}
	if disp := c.funcDisposition(fn); disp == dispCompensated || disp == dispBenign {
		return
	}
	mut := c.firstMutation(p, fn.Body, declTaint(p, fn))
	if mut == nil {
		return
	}
	site, desc := c.firstFallibleAfter(p, fn, mut.pos)
	if site == token.NoPos {
		return
	}
	c.report(p, site, fmt.Sprintf(
		"caller-visible state is mutated at line %d%s before this fallible %s; a failure surfaces with the mutation applied — add a compensation path and annotate the function //adhoclint:faultpath(compensated, reason)",
		p.Fset.Position(mut.pos).Line, c.mutChain(mut), desc))
}

// returnsError reports whether the declaration's last result is an error.
func returnsError(p *Package, fn *ast.FuncDecl) bool {
	res := fn.Type.Results
	if res == nil || len(res.List) == 0 {
		return false
	}
	t := p.Info.Types[res.List[len(res.List)-1].Type].Type
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

// firstFallibleAfter finds the earliest fabric call, simnet.Retry, or
// call into a fabric-touching module function after pos whose error the
// caller captures (and can therefore propagate).
func (c *faultpathChecker) firstFallibleAfter(p *Package, fn *ast.FuncDecl, pos token.Pos) (token.Pos, string) {
	best := token.NoPos
	desc := ""
	record := func(at token.Pos, d string) {
		if best == token.NoPos || at < best {
			best, desc = at, d
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok || len(asg.Rhs) != 1 || len(asg.Lhs) == 0 {
			return true
		}
		call, ok := asg.Rhs[0].(*ast.CallExpr)
		if !ok || call.Pos() <= pos || isBlank(asg.Lhs[len(asg.Lhs)-1]) {
			return true
		}
		if fc := fabricCallAt(p, call, c.prog.simnetPath); fc != nil {
			record(call.Pos(), fmt.Sprintf("%s of %q", fc.kind, fc.value))
			return true
		}
		callee, _ := staticCallee(p.Info, call)
		if callee == nil {
			return true
		}
		if c.prog.isSimnetFunc(callee, "Retry") {
			record(call.Pos(), "simnet.Retry")
			return true
		}
		if c.reach.touches(callee) && calleeReturnsError(callee) {
			record(call.Pos(), "call to "+funcDisplay(callee))
		}
		return true
	})
	return best, desc
}

// calleeReturnsError reports whether the function's last result is error.
func calleeReturnsError(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	return types.Identical(sig.Results().At(sig.Results().Len()-1).Type(),
		types.Universe.Lookup("error").Type())
}

// checkParallelSites requires every simnet.Parallel fan-out to declare
// abort-all or collect-partial.
func (c *faultpathChecker) checkParallelSites(p *Package, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if callee, _ := staticCallee(p.Info, call); !c.prog.isSimnetFunc(callee, "Parallel") {
			return true
		}
		disp, declared := faultDispositionAt(c.prog, call.Pos())
		switch {
		case !declared:
			c.report(p, call.Pos(),
				"simnet.Parallel fan-out must declare its failure semantics: annotate //adhoclint:faultpath(abort-all) or //adhoclint:faultpath(collect-partial, reason)")
		case disp != dispAbortAll && disp != dispCollectPartial:
			c.report(p, call.Pos(), fmt.Sprintf(
				"faultpath(%s) does not apply to a Parallel fan-out; declare abort-all or collect-partial", disp))
		}
		return true
	})
}

// checkRetrySites resolves every simnet.Retry call: the closure must
// depart its fabric calls at the attempt-time parameter (so FailTimeout
// accumulates), and the methods it invokes are recorded for the
// idempotence cross-check.
func (c *faultpathChecker) checkRetrySites(p *Package, fn *ast.FuncDecl) {
	encl, _ := p.Info.Defs[fn.Name].(*types.Func)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if callee, _ := staticCallee(p.Info, call); !c.prog.isSimnetFunc(callee, "Retry") || len(call.Args) != 3 {
			return true
		}
		lit := resolveOpLiteral(p, fn, call.Args[2])
		if lit == nil {
			return true
		}
		var atParam types.Object
		if len(lit.Type.Params.List) > 0 {
			field := lit.Type.Params.List[0]
			if isNamedType(p.Info.Types[field.Type].Type, c.prog.simnetPath, "VTime") && len(field.Names) > 0 {
				atParam = p.Info.Defs[field.Names[0]]
			}
		}
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			inner, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			fc := fabricCallAt(p, inner, c.prog.simnetPath)
			if fc == nil {
				return true
			}
			if fc.value != "" && fc.kind != "Transfer" {
				c.retried[fc.value] = append(c.retried[fc.value],
					&retrySite{pkg: p, pos: call.Pos(), encl: encl})
			}
			if atParam != nil && len(inner.Args) >= 5 && !referencesObj(p, inner.Args[4], atParam) {
				c.report(p, inner.Pos(), fmt.Sprintf(
					"fabric call inside a simnet.Retry closure ignores the closure's attempt-time parameter %q; failed attempts would not accumulate FailTimeout on the critical path",
					atParam.Name()))
			}
			return true
		})
		return true
	})
}

// resolveOpLiteral finds the function literal behind a Retry operation
// argument: the literal itself, or the hoisted closure a local identifier
// was assigned (the allocation-free loop pattern).
func resolveOpLiteral(p *Package, fn *ast.FuncDecl, arg ast.Expr) *ast.FuncLit {
	switch a := unparen(arg).(type) {
	case *ast.FuncLit:
		return a
	case *ast.Ident:
		obj := defOrUse(p.Info, a)
		if obj == nil {
			return nil
		}
		var lit *ast.FuncLit
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			asg, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range asg.Lhs {
				id, ok := unparen(lhs).(*ast.Ident)
				if !ok || defOrUse(p.Info, id) != obj || i >= len(asg.Rhs) {
					continue
				}
				if l, ok := unparen(asg.Rhs[i]).(*ast.FuncLit); ok {
					lit = l
				}
			}
			return true
		})
		return lit
	}
	return nil
}

// referencesObj reports whether the expression mentions the object.
func referencesObj(p *Package, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && defOrUse(p.Info, id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// checkRetriedHandlers cross-checks every retried method against its
// dispatch handler: a handler that mutates node state is re-run on a lost
// reply, so it must deduplicate and carry an idempotent declaration on
// its Method* constant.
func (c *faultpathChecker) checkRetriedHandlers() {
	if len(c.retried) == 0 {
		return
	}
	loaded := c.prog.loadedPackages()
	constsByValue := map[string]*methodConst{}
	for _, mc := range collectMethodConsts(loaded) {
		if _, ok := constsByValue[mc.value]; !ok {
			constsByValue[mc.value] = mc
		}
	}
	// Each dispatched method maps to the mutation its handler case performs
	// (nil for read-only cases); a method dispatched by several handlers
	// keeps the first mutation found.
	caseMuts := map[string]*mutInfo{}
	for _, hc := range c.prog.handlerCases() {
		mut := c.firstMutation(hc.pkg, &ast.BlockStmt{List: hc.body}, declTaint(hc.pkg, hc.node.decl))
		if caseMuts[hc.value] == nil {
			caseMuts[hc.value] = mut
		}
	}

	values := make([]string, 0, len(c.retried))
	for v := range c.retried {
		values = append(values, v)
	}
	sort.Strings(values)
	for _, value := range values {
		mut := caseMuts[value]
		if mut == nil {
			continue // handler unknown or read-only
		}
		mc := constsByValue[value]
		if mc != nil {
			if disp, _ := faultDispositionAt(c.prog, mc.pos); disp == dispIdempotent {
				continue
			}
		}
		sites := c.retried[value]
		sort.Slice(sites, func(i, j int) bool { return sites[i].pos < sites[j].pos })
		site := sites[0]
		from := "a simnet.Retry site"
		if site.encl != nil {
			from = funcDisplay(site.encl)
		}
		name := value
		if mc != nil {
			name = mc.name
		}
		msg := fmt.Sprintf(
			"%s (%q) is retried from %s but its handler mutates node state%s; deduplicate re-deliveries and annotate the constant //adhoclint:faultpath(idempotent, reason)",
			name, value, from, c.mutChain(mut))
		switch {
		case mc != nil && c.analyzed[mc.pkg] && c.inScope(mc.pkg):
			c.report(mc.pkg, mc.pos, msg)
		default:
			c.report(site.pkg, site.pos, msg)
		}
	}
}
