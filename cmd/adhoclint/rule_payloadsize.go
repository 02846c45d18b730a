package main

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// The payload-size analysis keeps SizeBytes honest: the traffic totals the
// experiments report (paper Sect. V's transmission/response-time trade-off)
// are sums of SizeBytes results, so a field that a SizeBytes method forgets
// silently underreports every experiment. Each SizeBytes method with a
// struct receiver must mention every field of that struct somewhere in its
// body; a deliberately uncounted field is declared with an
// //adhoclint:ignore payload-size comment carrying the reason.

// checkPayloadSizes audits every SizeBytes method of the analyzed packages.
func checkPayloadSizes(prog *Program, enabled map[string]bool) []Diagnostic {
	if enabled != nil && !enabled[rulePayloadSize] {
		return nil
	}
	var diags []Diagnostic
	for _, node := range prog.analyzedFuncs() {
		p, decl, obj := node.pkg, node.decl, node.obj
		if decl.Name.Name != "SizeBytes" || decl.Recv == nil {
			continue
		}
		sig, ok := obj.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			continue
		}
		recv := sig.Recv().Type()
		if ptr, isPtr := recv.(*types.Pointer); isPtr {
			recv = ptr.Elem()
		}
		named, ok := recv.(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue // e.g. simnet.Bytes: nothing to cross-check
		}
		// trace.TraceContext is zero-width wire metadata by contract (see
		// observability.go): its own SizeBytes returns 0 on purpose, and
		// payload structs need not count TraceContext-typed fields.
		if isTraceContext(named, prog.modPath) {
			continue
		}
		mentioned := fieldMentions(decl)
		var missing []string
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if f.Name() == "_" || mentioned[f.Name()] || isTraceContext(f.Type(), prog.modPath) {
				continue
			}
			missing = append(missing, f.Name())
		}
		if len(missing) > 0 {
			diags = append(diags, diagAt(p, decl.Pos(), rulePayloadSize,
				fmt.Sprintf("SizeBytes of %s does not account for field%s %s",
					named.Obj().Name(), plural(missing), strings.Join(missing, ", "))))
		}
	}
	return diags
}

// fieldMentions collects every selector name used in the method body: a
// field counted via `r.Field`, ranged over, or passed along mentions its
// name as a selector.
func fieldMentions(decl *ast.FuncDecl) map[string]bool {
	mentioned := map[string]bool{}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			mentioned[sel.Sel.Name] = true
		}
		return true
	})
	return mentioned
}

func plural(items []string) string {
	if len(items) == 1 {
		return ""
	}
	return "s"
}
