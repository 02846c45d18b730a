package main

import (
	"fmt"
	"go/ast"
	"go/types"
)

// guardedStruct describes one struct that owns a mutex named "mu": per the
// project convention (see DESIGN.md "Concurrency & determinism
// conventions"), the fields declared after mu are guarded by it, the
// fields before it are immutable after construction or independently
// synchronized.
type guardedStruct struct {
	name   string
	fields map[string]bool // guarded field names
}

// collectGuardedStructs finds every convention-following struct in the
// package's files.
func collectGuardedStructs(files []*ast.File) map[string]guardedStruct {
	out := map[string]guardedStruct{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			guarded := map[string]bool{}
			seenMu := false
			for _, field := range st.Fields.List {
				if !seenMu {
					if len(field.Names) == 1 && field.Names[0].Name == "mu" && isSyncMutexType(nil, field.Type) {
						seenMu = true
					}
					continue
				}
				for _, name := range field.Names {
					guarded[name.Name] = true
				}
			}
			if seenMu && len(guarded) > 0 {
				out[ts.Name.Name] = guardedStruct{name: ts.Name.Name, fields: guarded}
			}
			return true
		})
	}
	return out
}

// isSyncMutexType reports whether e — an expression or a type expression —
// is a sync.Mutex or sync.RWMutex, possibly behind a pointer. Without type
// information (test files are not type-checked) it judges a type
// expression by its spelling.
func isSyncMutexType(info *types.Info, e ast.Expr) bool {
	if info != nil {
		t := info.TypeOf(e)
		return isNamedType(t, "sync", "Mutex") || isNamedType(t, "sync", "RWMutex")
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "sync" && (sel.Sel.Name == "Mutex" || sel.Sel.Name == "RWMutex")
}

// checkGuardedFields enforces the mu-guards-following-fields convention:
// in a method of a mutex-owning struct, every access to a guarded field
// through the receiver must sit inside a held-lock region of the
// receiver's mu. Methods whose name ends in "Locked" are assumed to be
// called with the lock already held and are skipped.
func checkGuardedFields(p *Package) []Diagnostic {
	var diags []Diagnostic
	for _, group := range [][]*ast.File{p.Files, p.TestFiles} {
		structs := collectGuardedStructs(group)
		if len(structs) == 0 {
			continue
		}
		for _, f := range group {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				gs, ok := structs[recvTypeName(fn)]
				if !ok {
					continue
				}
				recv := recvName(fn)
				if recv == "" || hasSuffixLocked(fn.Name.Name) {
					continue
				}
				regions := muRegions(fn)
				owner := recv + ".mu"
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					base, ok := sel.X.(*ast.Ident)
					if !ok || base.Name != recv || !gs.fields[sel.Sel.Name] {
						return true
					}
					if _, held := insideAny(regions, sel.Pos(), owner); !held {
						diags = append(diags, Diagnostic{
							Pos:  p.Fset.Position(sel.Pos()),
							Rule: ruleGuarded,
							Msg: fmt.Sprintf("%s.%s is guarded by %s (declared after it) but accessed in %s without holding the lock",
								recv, sel.Sel.Name, owner, fn.Name.Name),
						})
					}
					return true
				})
			}
		}
	}
	return diags
}

func hasSuffixLocked(name string) bool {
	return len(name) >= 6 && name[len(name)-6:] == "Locked"
}
