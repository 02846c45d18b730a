package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// The vtime-accounting analysis (rule "vtime") guards the simulation's
// critical-path timing model. Virtual time only stays meaningful if every
// fabric interaction threads the charged VTime:
//
//   - fan-out must go through simnet.Parallel, which accounts branch time
//     as the max over branches: a raw `go` statement (with or without a
//     WaitGroup) that transitively reaches a fabric call runs off the
//     books;
//   - handler-shaped functions (payload, VTime, error) must derive the
//     VTime they return from the charged time they received — the `at`
//     parameter or the done-values of their own fabric calls — not
//     fabricate a constant;
//   - the VTime result of a fabric call must not be discarded (assigned
//     to `_` or dropped with the whole result);
//   - simnet.Parallel branch bodies must not write captured state except
//     through elements indexed by the branch parameter: any other shared
//     write makes the result depend on completion order, which the
//     deterministic scheduler does not define.
//
// The rule applies to internal/ and cmd/ packages except internal/simnet
// itself (whose Parallel implementation is the one sanctioned use of raw
// goroutines) and cmd/adhoclint. Suppress a finding with
// //adhoclint:ignore vtime(reason). A fabric call declared
// //adhoclint:faultpath(fire-and-forget, reason) is exempt from the
// dropped-VTime check: a declared fire-and-forget notification is off the
// critical path by design, so its charged time has no accounting to join.

// checkVTime runs the vtime rule over the program.
func checkVTime(prog *Program, enabled map[string]bool) []Diagnostic {
	if enabled != nil && !enabled[ruleVTime] {
		return nil
	}
	v := &vtimeChecker{
		prog:     prog,
		reporter: reporter{rule: ruleVTime, analyzed: prog.analyzedSet()},
		reach:    prog.reach(),
	}
	for _, node := range prog.allFuncs() {
		if !v.analyzed[node.pkg] || !v.inScope(node.pkg) {
			continue
		}
		v.checkGoFanout(node.pkg, node.decl)
		v.checkHandlerVTime(node)
		v.checkDroppedVTime(node.pkg, node.decl)
		v.checkParallelBodies(node.pkg, node.decl)
	}
	return v.diags
}

type vtimeChecker struct {
	prog *Program
	reporter
	reach *fabricReach
}

// inScope limits the rule to internal/ and cmd/ packages outside
// internal/simnet and the linter itself.
func (v *vtimeChecker) inScope(p *Package) bool {
	if p.ImportPath == v.prog.simnetPath || p.ImportPath == v.prog.modPath+"/cmd/adhoclint" {
		return false
	}
	return internalPackage(p) || cmdPackage(p, v.prog.modPath)
}

// fireAndForgetAt reports whether the position carries a
// faultpath(fire-and-forget) declaration on its line or the line above.
func (v *vtimeChecker) fireAndForgetAt(pos token.Pos) bool {
	disp, _ := faultDispositionAt(v.prog, pos)
	return disp == dispFireAndForget
}

// touches reports whether callee reaches the fabric (fabric-neutral
// observability callees never do).
func (v *vtimeChecker) touches(callee *types.Func) bool {
	return callee != nil && !observabilityNeutral(callee, v.prog.modPath) && v.reach.touches(callee)
}

// nodeTouchesFabric reports whether the subtree contains a fabric call,
// directly or through a statically resolved callee.
func (v *vtimeChecker) nodeTouchesFabric(p *Package, node ast.Node) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && !found {
			callee, _ := staticCallee(p.Info, call)
			found = fabricCallAt(p, call, v.prog.simnetPath) != nil || v.touches(callee)
		}
		return !found
	})
	return found
}

// checkGoFanout flags `go` statements that transitively reach fabric
// calls: their branch time never joins the caller's critical path.
func (v *vtimeChecker) checkGoFanout(p *Package, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		bad := false
		switch fun := unparen(g.Call.Fun).(type) {
		case *ast.FuncLit:
			bad = v.nodeTouchesFabric(p, fun.Body)
		default:
			callee, _ := staticCallee(p.Info, g.Call)
			bad = v.touches(callee)
		}
		if bad {
			v.report(p, g.Pos(),
				"goroutine fans out over simnet fabric calls; its branch time escapes the critical-path accounting — use simnet.Parallel")
		}
		return true
	})
}

// checkHandlerVTime flags handler-shaped returns whose VTime is not
// derived from the charged time (the VTime parameters or the done-values
// of the handler's own fabric calls).
func (v *vtimeChecker) checkHandlerVTime(node *funcNode) {
	p, fn := node.pkg, node.decl
	if !handlerShape(p, fn, v.prog.simnetPath, nil) {
		return
	}
	taint := map[types.Object]bool{}
	for _, field := range fn.Type.Params.List {
		if !isNamedType(p.Info.Types[field.Type].Type, v.prog.simnetPath, "VTime") {
			continue
		}
		for _, name := range field.Names {
			if obj := p.Info.Defs[name]; obj != nil {
				taint[obj] = true
			}
		}
	}
	tainted := func(e ast.Expr) bool {
		has := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := defOrUse(p.Info, id); obj != nil && taint[obj] {
					has = true
				}
			}
			return !has
		})
		return has
	}
	// Fixpoint: propagate taint through assignments and fabric results. A
	// write through an index or field taints the whole container — reads
	// of it may then yield the charged time.
	for changed := true; changed; {
		changed = false
		mark := func(lhs ast.Expr) {
			obj := exprRootObj(p.Info, lhs)
			if obj != nil && !taint[obj] {
				taint[obj] = true
				changed = true
			}
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			asg, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			if len(asg.Rhs) == 1 && len(asg.Lhs) > 1 {
				if call, ok := asg.Rhs[0].(*ast.CallExpr); ok {
					if fc := fabricCallAt(p, call, v.prog.simnetPath); fc != nil {
						donePos := 0 // Send/Transfer: (VTime, error)
						if fc.kind == "Call" {
							donePos = 1 // (Payload, VTime, error)
						}
						mark(asg.Lhs[donePos])
						return true
					}
				}
				if tainted(asg.Rhs[0]) {
					for _, lhs := range asg.Lhs {
						mark(lhs)
					}
				}
				return true
			}
			for i, lhs := range asg.Lhs {
				if i >= len(asg.Rhs) {
					break
				}
				if tainted(asg.Rhs[i]) {
					mark(lhs)
				}
			}
			return true
		})
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) != 3 {
			return true
		}
		if !tainted(ret.Results[1]) {
			v.report(p, ret.Results[1].Pos(), fmt.Sprintf(
				"%s returns a VTime unrelated to the charged time; thread the handler's VTime parameter or a fabric done-value instead of fabricating one",
				funcDisplay(node.obj)))
		}
		return true
	})
}

// checkDroppedVTime flags fabric calls whose charged VTime is discarded.
func (v *vtimeChecker) checkDroppedVTime(p *Package, fn *ast.FuncDecl) {
	reported := map[*ast.CallExpr]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				return true
			}
			call, ok := n.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			fc := fabricCallAt(p, call, v.prog.simnetPath)
			if fc == nil {
				return true
			}
			reported[call] = true
			donePos := 0
			if fc.kind == "Call" {
				donePos = 1
			}
			if donePos >= len(n.Lhs) {
				return true
			}
			if id, ok := n.Lhs[donePos].(*ast.Ident); ok && id.Name == "_" &&
				!v.fireAndForgetAt(call.Pos()) {
				v.report(p, call.Pos(), fmt.Sprintf(
					"the VTime charged by %s of %q is discarded; thread it into the caller's accounting",
					fc.kind, fc.value))
			}
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok && !reported[call] {
				if fc := fabricCallAt(p, call, v.prog.simnetPath); fc != nil && !v.fireAndForgetAt(call.Pos()) {
					v.report(p, call.Pos(), fmt.Sprintf(
						"the result of %s of %q (including its charged VTime) is discarded; thread it into the caller's accounting",
						fc.kind, fc.value))
				}
			}
		}
		return true
	})
}

// checkParallelBodies flags simnet.Parallel branch literals that write
// captured state other than through elements indexed by the branch
// parameter: such writes make the outcome depend on completion order.
func (v *vtimeChecker) checkParallelBodies(p *Package, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if callee, _ := staticCallee(p.Info, call); !v.prog.isSimnetFunc(callee, "Parallel") || len(call.Args) == 0 {
			return true
		}
		lit, ok := unparen(call.Args[len(call.Args)-1]).(*ast.FuncLit)
		if !ok {
			return true
		}
		v.checkBranchLit(p, lit)
		return true
	})
}

func (v *vtimeChecker) checkBranchLit(p *Package, lit *ast.FuncLit) {
	// Objects declared inside the branch (parameters included) are private
	// to it; everything else is captured.
	local := map[types.Object]bool{}
	for _, field := range lit.Type.Params.List {
		for _, name := range field.Names {
			if obj := p.Info.Defs[name]; obj != nil {
				local[obj] = true
			}
		}
	}
	var branchParam types.Object
	if len(lit.Type.Params.List) > 0 && len(lit.Type.Params.List[0].Names) > 0 {
		branchParam = p.Info.Defs[lit.Type.Params.List[0].Names[0]]
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := p.Info.Defs[id]; obj != nil {
				local[obj] = true
			}
		}
		return true
	})
	usesBranchParam := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && branchParam != nil && defOrUse(p.Info, id) == branchParam {
				found = true
			}
			return !found
		})
		return found
	}
	flagLvalue := func(lhs ast.Expr) {
		switch l := unparen(lhs).(type) {
		case *ast.Ident:
			if l.Name == "_" {
				return
			}
			obj := defOrUse(p.Info, l)
			if _, isVar := obj.(*types.Var); isVar && !local[obj] {
				v.report(p, l.Pos(), fmt.Sprintf(
					"simnet.Parallel branch writes captured %q; return results through the branch (or index by the branch parameter) so completion order cannot affect them", l.Name))
			}
		case *ast.IndexExpr:
			root := exprRootObj(p.Info, l.X)
			if root == nil || local[root] || usesBranchParam(l.Index) {
				return
			}
			if _, isVar := root.(*types.Var); isVar {
				v.report(p, l.Pos(), fmt.Sprintf(
					"simnet.Parallel branch writes captured %q at an index not derived from the branch parameter; completion order can affect the result", root.Name()))
			}
		case *ast.SelectorExpr, *ast.StarExpr:
			var x ast.Expr
			if sel, ok := l.(*ast.SelectorExpr); ok {
				x = sel.X
			} else {
				x = l.(*ast.StarExpr).X
			}
			root := exprRootObj(p.Info, x)
			if root == nil || local[root] {
				return
			}
			if _, isVar := root.(*types.Var); isVar {
				v.report(p, l.Pos(), fmt.Sprintf(
					"simnet.Parallel branch writes captured %q; return results through the branch so completion order cannot affect them", root.Name()))
			}
		}
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				flagLvalue(lhs)
			}
		case *ast.IncDecStmt:
			flagLvalue(n.X)
		}
		return true
	})
}
