package main

import (
	"go/ast"
	"go/token"
)

// muRegion is a span of a function body during which a mutex named "mu" is
// held, according to the project's locking convention. Owner is the source
// rendering of the mutex expression ("s.mu", "c.mu", "mu", ...).
type muRegion struct {
	owner      string
	start, end token.Pos
	expr       ast.Expr // the mutex expression of the opening Lock/RLock
	write      bool     // opened by Lock (vs RLock)
}

func (r muRegion) contains(p token.Pos) bool { return r.start <= p && p <= r.end }

// muEvent is one Lock/Unlock call found in a body.
type muEvent struct {
	pos      token.Pos
	owner    string
	lock     bool // Lock or RLock (vs Unlock or RUnlock)
	write    bool // Lock or Unlock (vs RLock or RUnlock)
	deferred bool
	block    ast.Node // innermost enclosing block-like node
	expr     ast.Expr // the mutex expression itself ("s.mu", "mu", ...)
}

// muOwner reports whether expr is a mutex named by the "mu" convention and
// returns its rendered owner name: the ident "mu" itself or a selector
// chain ending in ".mu" rooted at an ident.
func muOwner(expr ast.Expr) (string, bool) {
	switch e := expr.(type) {
	case *ast.Ident:
		if e.Name == "mu" {
			return "mu", true
		}
	case *ast.SelectorExpr:
		if e.Sel.Name != "mu" {
			return "", false
		}
		if base, ok := exprChain(e.X); ok {
			return base + ".mu", true
		}
	}
	return "", false
}

// exprChain renders a selector chain of plain identifiers ("s", "n.table").
func exprChain(expr ast.Expr) (string, bool) {
	switch e := expr.(type) {
	case *ast.Ident:
		return e.Name, true
	case *ast.SelectorExpr:
		base, ok := exprChain(e.X)
		if !ok {
			return "", false
		}
		return base + "." + e.Sel.Name, true
	}
	return "", false
}

// muEvents collects every Lock/RLock/Unlock/RUnlock call in the function
// body whose receiver the mutex recognizer accepts — muOwner for the "mu"
// naming convention, typedMutex for any sync.Mutex/RWMutex-typed
// expression — with the rendered owner, the enclosing block-like node and
// the defer context of each.
func muEvents(fn *ast.FuncDecl, mutex func(ast.Expr) (string, bool)) []muEvent {
	if fn.Body == nil {
		return nil
	}
	var events []muEvent
	var stack []ast.Node
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		name := sel.Sel.Name
		if name != "Lock" && name != "RLock" && name != "Unlock" && name != "RUnlock" {
			return true
		}
		owner, ok := mutex(sel.X)
		if !ok {
			return true
		}
		var blk ast.Node
		deferred := false
		for i := len(stack) - 2; i >= 0; i-- {
			if d, isDefer := stack[i].(*ast.DeferStmt); isDefer && d.Call == call {
				deferred = true
			}
			if blk == nil {
				switch stack[i].(type) {
				case *ast.BlockStmt, *ast.CaseClause, *ast.CommClause:
					blk = stack[i]
				}
			}
		}
		events = append(events, muEvent{
			pos:      call.Pos(),
			owner:    owner,
			lock:     name == "Lock" || name == "RLock",
			write:    name == "Lock" || name == "Unlock",
			deferred: deferred,
			block:    blk,
			expr:     sel.X,
		})
		return true
	})
	return events
}

// typedMutex recognizes any sync.Mutex/RWMutex-typed selector chain of
// the package, whatever its name.
func typedMutex(p *Package) func(ast.Expr) (string, bool) {
	return func(x ast.Expr) (string, bool) {
		owner, ok := exprChain(x)
		return owner, ok && isSyncMutexType(p.Info, x)
	}
}

// muRegions derives held-lock spans from the events of one function body.
//
// The heuristic mirrors how the codebase writes critical sections: a Lock
// opens a region that ends at the first non-deferred Unlock of the same
// mutex in the same block; if the Unlock is deferred, the region runs to
// the end of the function; with neither (early-return unlocks inside
// nested branches only), the region runs to the end of the Lock's own
// block — erring on the side of "still locked", which keeps the
// guarded-field rule permissive and the blocking rule conservative.
func muRegions(fn *ast.FuncDecl) []muRegion {
	return regionsFromEvents(fn, muEvents(fn, muOwner))
}

// regionsFromEvents derives the held spans from an event list of any
// recognizer, so the racefree rule's typed mutexes share the heuristic.
func regionsFromEvents(fn *ast.FuncDecl, events []muEvent) []muRegion {
	if len(events) == 0 {
		return nil
	}
	var regions []muRegion
	for _, e := range events {
		if !e.lock || e.deferred {
			continue
		}
		end := token.NoPos
		for _, u := range events {
			if u.lock || u.pos <= e.pos || u.owner != e.owner || u.deferred {
				continue
			}
			if u.block == e.block {
				end = u.pos
				break
			}
		}
		if end == token.NoPos {
			if hasDeferredUnlock(events, e) {
				end = fn.Body.End()
			} else if e.block != nil {
				end = e.block.End()
			} else {
				end = fn.Body.End()
			}
		}
		regions = append(regions, muRegion{owner: e.owner, start: e.pos, end: end, expr: e.expr, write: e.write})
	}
	return regions
}

func hasDeferredUnlock(events []muEvent, lock muEvent) bool {
	for _, u := range events {
		if !u.lock && u.deferred && u.owner == lock.owner && u.pos > lock.pos {
			return true
		}
	}
	return false
}

// insideAny reports whether pos falls in any region (optionally restricted
// to one owner) and returns the owner of the innermost match.
func insideAny(regions []muRegion, pos token.Pos, owner string) (string, bool) {
	for _, r := range regions {
		if owner != "" && r.owner != owner {
			continue
		}
		if r.contains(pos) {
			return r.owner, true
		}
	}
	return "", false
}
