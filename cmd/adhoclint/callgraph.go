package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// callSite is one statically resolved call inside a function body.
type callSite struct {
	callee *types.Func
	call   *ast.CallExpr
	pos    token.Pos
	// recv is the rendered receiver chain of a method call ("n",
	// "s.table"), or "" for plain function calls and unrenderable
	// receivers. The lock-order rule compares it against the held mutex's
	// owner to recognize same-object recursive acquisition.
	recv string
	// inGo marks calls that are the direct operand of a `go` statement:
	// they run outside the caller's critical sections.
	inGo bool
}

// funcNode is one function declaration of the program model.
type funcNode struct {
	obj    *types.Func
	decl   *ast.FuncDecl
	pkg    *Package
	calls  []callSite    // static calls, in source order
	fabric []*fabricCall // fabric call sites, in source order
}

// collectCalls finds the statically resolvable calls in one body.
func collectCalls(p *Package, fn *ast.FuncDecl) []callSite {
	var calls []callSite
	goCalls := map[*ast.CallExpr]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			goCalls[g.Call] = true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee, recv := staticCallee(p.Info, call)
		if callee == nil {
			return true
		}
		calls = append(calls, callSite{
			callee: callee,
			call:   call,
			pos:    call.Pos(),
			recv:   recv,
			inGo:   goCalls[call],
		})
		return true
	})
	return calls
}

// staticCallee resolves a call expression to the called function object,
// when that is statically evident: a package-level function, or a method
// on a concrete receiver. Interface methods resolve to the interface's
// method object, which has no declaration in the graph and is therefore
// never followed.
func staticCallee(info *types.Info, call *ast.CallExpr) (*types.Func, string) {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f, ""
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			recv, _ := exprChain(fun.X)
			return f, recv
		}
	}
	return nil, ""
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// funcDisplay renders a function for diagnostics: "overlay.(*System).Publish"
// or "chord.Converge".
func funcDisplay(f *types.Func) string {
	name := f.Name()
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		if f.Pkg() != nil {
			return f.Pkg().Name() + "." + name
		}
		return name
	}
	recv := sig.Recv().Type()
	ptr := ""
	if p, isPtr := recv.(*types.Pointer); isPtr {
		recv = p.Elem()
		ptr = "*"
	}
	tn := "?"
	if named, isNamed := recv.(*types.Named); isNamed {
		tn = named.Obj().Name()
	}
	pkg := ""
	if f.Pkg() != nil {
		pkg = f.Pkg().Name() + "."
	}
	if ptr != "" {
		return fmt.Sprintf("%s(%s%s).%s", pkg, ptr, tn, name)
	}
	return fmt.Sprintf("%s%s.%s", pkg, tn, name)
}

// shortClass trims the module-path prefix of a lock class for display:
// "adhocshare/internal/chord.Node.mu" → "chord.Node.mu".
func shortClass(c lockClass) string {
	s := string(c)
	if i := strings.LastIndex(s, "/"); i >= 0 {
		s = s[i+1:]
	}
	return s
}
