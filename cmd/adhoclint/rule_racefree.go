package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The racefree analysis proves (or refutes) handler race-readiness: once a
// real transport delivers messages concurrently (simnet's
// ConcurrentDelivery mode, ROADMAP item 3), every RPC handler reachable
// from a HandleCall dispatch switch and every public API method on the
// same node type may run at the same time on one node. For each such entry
// point the rule computes — interprocedurally, reusing the call graph and
// the lock-region machinery behind the lock-order rule plus the
// guarded-field convention — the set of node fields read and written and
// the mutex classes held at each access, and reports every pair of
// concurrently-invocable entry points that conflict on a field (at least
// one write) without a common lock, with a witness call chain for both
// sides.
//
// Model and deliberate limits:
//
//   - Node types are the named struct types with a handler-shaped
//     HandleCall method. Entry points ("roots") are HandleCall itself plus
//     every exported method of the type; any two roots of one type —
//     including a root against a second invocation of itself — are assumed
//     concurrently invocable on the same node.
//   - Accesses are tracked along receiver-rooted paths ("n.f", "n.f.g",
//     simple local aliases "h := n.hot; h.g"), and propagated through
//     receiver-rooted method calls; helpers that receive the node as a
//     plain argument are not followed, and neither are calls spawned in
//     goroutine statements (the vtime rule polices those separately).
//   - Any sync.Mutex/RWMutex-typed field counts as a lock, not only the
//     convention name "mu". Mutex identity is class-level
//     ("pkg.Type.field"), so two instances of one class are conservatively
//     assumed to be the same lock. A pair of accesses is protected when
//     both sides hold a common class and every writing side holds it in
//     write mode.
//   - //adhoclint:racefree(reason) on a struct field line exempts the
//     field; directly above a method declaration it removes the method
//     from the root set (e.g. setup calls documented to finish before the
//     node serves traffic). The rule name also participates in the
//     standard //adhoclint:ignore grammar.

// raceDebug, when set by a test, observes the checker state after the
// analysis runs.
var raceDebug func(*raceChecker, []*raceNodeType)

// raceKey identifies one access-fact class: a field of a named struct and
// the access kind.
type raceKey struct {
	owner string // "«pkgpath».«Type»"
	field string
	write bool
}

// raceFact is the interprocedurally closed record of one access class in
// one function: the weakest lock set observed over all paths (class →
// held-in-write-mode), plus one witness step (via == nil: direct access at
// pos; otherwise: reached by calling via at pos).
type raceFact struct {
	held map[lockClass]bool
	via  *types.Func
	pos  token.Pos
	pkg  *Package
}

// raceSummary is the per-function fact set of the fixpoint.
type raceSummary struct {
	node    *funcNode
	recv    string
	regions []muRegion
	classes []lockClass // lock class per region ("" = unclassifiable)
	aliases map[string]string
	facts   map[raceKey]*raceFact
}

// heldAt reports the lock classes held at a position of the function body,
// mapped to whether the hold is exclusive (Lock vs RLock).
func (s *raceSummary) heldAt(pos token.Pos) map[lockClass]bool {
	var held map[lockClass]bool
	for i, r := range s.regions {
		if s.classes[i] == "" || !r.contains(pos) {
			continue
		}
		if held == nil {
			held = map[lockClass]bool{}
		}
		if r.write {
			held[s.classes[i]] = true
		} else if _, ok := held[s.classes[i]]; !ok {
			held[s.classes[i]] = false
		}
	}
	return held
}

// raceNodeType is one handler-owning struct with its concurrently
// invocable entry points.
type raceNodeType struct {
	key     string // "«pkgpath».«Type»"
	display string // "overlay.IndexNode"
	pkgPath string
	roots   []*types.Func
}

// raceSide is one half of a reported conflict.
type raceSide struct {
	root *types.Func
	key  raceKey
	fact *raceFact
}

type raceChecker struct {
	prog *Program
	reporter
	nodes []*funcNode // analyzed functions, sorted by position
	sums  map[*types.Func]*raceSummary
	// fieldOwner maps every named struct field object of the loaded
	// packages to its owner key; fieldMutex marks mutex-typed fields.
	fieldOwner map[*types.Var]string
	fieldMutex map[*types.Var]bool
	exemptFld  map[string]bool     // "«owner».«field»" exempted by directive
	used       map[*directive]bool // racefree directives that attached
	reported   map[string]bool     // "«pos»|«owner».«field»" already diagnosed
}

// checkRaceFree runs the racefree rule over the program.
func checkRaceFree(prog *Program, enabled map[string]bool) []Diagnostic {
	if enabled != nil && !enabled[ruleRaceFree] {
		return nil
	}
	c := &raceChecker{
		prog:       prog,
		reporter:   reporter{rule: ruleRaceFree, analyzed: prog.analyzedSet()},
		sums:       map[*types.Func]*raceSummary{},
		fieldOwner: map[*types.Var]string{},
		fieldMutex: map[*types.Var]bool{},
		exemptFld:  map[string]bool{},
		used:       map[*directive]bool{},
		reported:   map[string]bool{},
	}
	c.nodes = prog.analyzedFuncs()
	sort.Slice(c.nodes, func(i, j int) bool { return c.nodes[i].decl.Pos() < c.nodes[j].decl.Pos() })
	c.indexStructFields()
	nodeTypes := c.findNodeTypes()
	if len(nodeTypes) > 0 {
		c.buildSummaries()
		c.propagate()
		c.collectRoots(nodeTypes)
		for _, nt := range nodeTypes {
			c.reportConflicts(nt)
		}
	}
	if raceDebug != nil {
		raceDebug(c, nodeTypes)
	}
	c.directiveHygiene()
	return c.diags
}

// directiveAt returns the racefree directive of an analyzed package
// attached to a declaration position — on the same line or the line
// directly above — marking it used.
func (c *raceChecker) directiveAt(pos token.Pos) *directive {
	d := c.prog.directiveAt(dirRaceFree, pos)
	if d == nil || !c.analyzed[d.pkg] {
		return nil
	}
	c.used[d] = true
	return d
}

// indexStructFields maps every named struct field object of the loaded
// packages to its owning type, and records mutex-typed fields and
// field-level directives. Embedded fields carry no name object and are
// not indexed: accesses to promoted state resolve to the declaring
// struct's own fields anyway.
func (c *raceChecker) indexStructFields() {
	for _, p := range c.prog.loadedPackages() {
		if p.Info == nil {
			continue
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok || st.Fields == nil {
					return true
				}
				tobj := p.Info.Defs[ts.Name]
				if tobj == nil || tobj.Pkg() == nil {
					return true
				}
				owner := tobj.Pkg().Path() + "." + ts.Name.Name
				for _, field := range st.Fields.List {
					for _, name := range field.Names {
						v, ok := p.Info.Defs[name].(*types.Var)
						if !ok {
							continue
						}
						c.fieldOwner[v] = owner
						if isSyncMutexType(p.Info, field.Type) {
							c.fieldMutex[v] = true
						}
						if c.directiveAt(name.Pos()) != nil {
							c.exemptFld[owner+"."+name.Name] = true
						}
					}
				}
				return true
			})
		}
	}
}

// receiverNamed resolves a method's receiver to its named type.
func receiverNamed(obj *types.Func) *types.Named {
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// findNodeTypes discovers the struct types served by a handler-shaped
// HandleCall method, sorted by key.
func (c *raceChecker) findNodeTypes() []*raceNodeType {
	byKey := map[string]*raceNodeType{}
	for _, node := range c.nodes {
		if !c.prog.isHandler(node) {
			continue
		}
		obj := node.obj
		named := receiverNamed(obj)
		if named == nil || named.Obj().Pkg() == nil {
			continue
		}
		if _, isStruct := named.Underlying().(*types.Struct); !isStruct {
			continue
		}
		key := named.Obj().Pkg().Path() + "." + named.Obj().Name()
		if byKey[key] == nil {
			byKey[key] = &raceNodeType{
				key:     key,
				display: named.Obj().Pkg().Name() + "." + named.Obj().Name(),
				pkgPath: named.Obj().Pkg().Path(),
			}
		}
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*raceNodeType, 0, len(keys))
	for _, k := range keys {
		out = append(out, byKey[k])
	}
	return out
}

// buildSummaries computes the direct access facts of every method.
func (c *raceChecker) buildSummaries() {
	for _, node := range c.nodes {
		recv := recvName(node.decl)
		if recv == "" {
			continue
		}
		regions := regionsFromEvents(node.decl, muEvents(node.decl, typedMutex(node.pkg)))
		classes := make([]lockClass, len(regions))
		for i, r := range regions {
			classes[i] = mutexClass(node.pkg, r.expr)
		}
		s := &raceSummary{
			node:    node,
			recv:    recv,
			regions: regions,
			classes: classes,
			aliases: collectAliases(recv, node.decl.Body),
			facts:   map[raceKey]*raceFact{},
		}
		c.sums[node.obj] = s
		c.collectDirectFacts(s)
	}
}

// collectDirectFacts records every receiver-rooted field access of one
// method body with the lock classes held at the access.
func (c *raceChecker) collectDirectFacts(s *raceSummary) {
	p := s.node.pkg
	writes := collectWriteTargets(s.node.decl.Body)
	ast.Inspect(s.node.decl.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection, ok := p.Info.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return true
		}
		fv, ok := selection.Obj().(*types.Var)
		if !ok {
			return true
		}
		owner, ok := c.fieldOwner[fv]
		if !ok || c.fieldMutex[fv] || c.exemptFld[owner+"."+fv.Name()] {
			return true
		}
		chain, ok := exprChain(sel.X)
		if !ok || rootSegment(resolveAlias(s.aliases, chain)) != s.recv {
			return true
		}
		key := raceKey{owner: owner, field: fv.Name(), write: writes[sel]}
		mergeRaceFact(s.facts, key, &raceFact{held: s.heldAt(sel.Pos()), pos: sel.Pos(), pkg: p})
		return true
	})
}

// collectWriteTargets marks the outermost selector of every written
// lvalue: assignment and inc/dec targets, indexed and dereferenced
// variants thereof, delete arguments, and address-taken expressions
// (conservatively writes — the pointer may escape to a mutator).
func collectWriteTargets(body *ast.BlockStmt) map[ast.Node]bool {
	writes := map[ast.Node]bool{}
	mark := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			default:
				if sel, ok := e.(*ast.SelectorExpr); ok {
					writes[sel] = true
				}
				return
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				mark(lhs)
			}
		case *ast.IncDecStmt:
			mark(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				mark(n.X)
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "delete" && len(n.Args) > 0 {
				mark(n.Args[0])
			}
		}
		return true
	})
	return writes
}

// collectAliases records simple single-assignment aliases of
// receiver-rooted chains ("h := n.hot"), so accesses through the alias
// still count as node-state accesses.
func collectAliases(recv string, body *ast.BlockStmt) map[string]string {
	aliases := map[string]string{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i := range as.Lhs {
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok || id.Name == "_" || id.Name == recv {
				continue
			}
			chain, ok := exprChain(as.Rhs[i])
			if !ok {
				delete(aliases, id.Name)
				continue
			}
			full := resolveAlias(aliases, chain)
			if rootSegment(full) == recv && full != id.Name {
				aliases[id.Name] = full
			} else {
				delete(aliases, id.Name)
			}
		}
		return true
	})
	return aliases
}

// resolveAlias substitutes the chain's root through the alias map (bounded
// — alias chains are short by construction).
func resolveAlias(aliases map[string]string, chain string) string {
	for i := 0; i < 8; i++ {
		head, rest, has := strings.Cut(chain, ".")
		full, ok := aliases[head]
		if !ok {
			return chain
		}
		if has {
			chain = full + "." + rest
		} else {
			chain = full
		}
	}
	return chain
}

func rootSegment(chain string) string {
	head, _, _ := strings.Cut(chain, ".")
	return head
}

// mergeRaceFact folds a new fact into the map: the held set is the
// intersection over all paths (the weakest guarantee), and the witness
// follows the path that realizes the weakness.
func mergeRaceFact(m map[raceKey]*raceFact, k raceKey, f *raceFact) bool {
	old, ok := m[k]
	if !ok {
		m[k] = f
		return true
	}
	inter, changed := intersectHeld(old.held, f.held)
	if !changed {
		return false
	}
	old.held = inter
	if equalHeld(f.held, inter) {
		old.via, old.pos, old.pkg = f.via, f.pos, f.pkg
	}
	return true
}

// intersectHeld keeps the classes present in both sets, demoting to read
// mode unless both hold exclusively; changed reports whether the result
// weakens a.
func intersectHeld(a, b map[lockClass]bool) (map[lockClass]bool, bool) {
	out := map[lockClass]bool{}
	changed := false
	for cl, aw := range a {
		bw, ok := b[cl]
		if !ok {
			changed = true
			continue
		}
		m := aw && bw
		out[cl] = m
		if m != aw {
			changed = true
		}
	}
	return out, changed
}

// unionHeld merges two held sets, promoting to write mode when either side
// holds exclusively.
func unionHeld(a, b map[lockClass]bool) map[lockClass]bool {
	if len(b) == 0 {
		return a
	}
	out := make(map[lockClass]bool, len(a)+len(b))
	for cl, w := range a {
		out[cl] = w
	}
	for cl, w := range b {
		out[cl] = out[cl] || w
	}
	return out
}

func equalHeld(a, b map[lockClass]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for cl, w := range a {
		bw, ok := b[cl]
		if !ok || bw != w {
			return false
		}
	}
	return true
}

// propagate closes the access facts over receiver-rooted calls: the locks
// the caller holds at the call site protect everything the callee touches
// on the shared receiver chain.
func (c *raceChecker) propagate() {
	for changed := true; changed; {
		changed = false
		for _, node := range c.nodes {
			s := c.sums[node.obj]
			if s == nil {
				continue
			}
			for _, call := range s.node.calls {
				if call.inGo || call.recv == "" {
					continue
				}
				if rootSegment(resolveAlias(s.aliases, call.recv)) != s.recv {
					continue
				}
				g := c.sums[call.callee]
				if g == nil || len(g.facts) == 0 {
					continue
				}
				heldHere := s.heldAt(call.pos)
				for _, k := range sortedRaceKeys(g.facts) {
					f := g.facts[k]
					nf := &raceFact{
						held: unionHeld(f.held, heldHere),
						via:  call.callee,
						pos:  call.pos,
						pkg:  s.node.pkg,
					}
					if mergeRaceFact(s.facts, k, nf) {
						changed = true
					}
				}
			}
		}
	}
}

func sortedRaceKeys(m map[raceKey]*raceFact) []raceKey {
	keys := make([]raceKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].owner != keys[j].owner {
			return keys[i].owner < keys[j].owner
		}
		if keys[i].field != keys[j].field {
			return keys[i].field < keys[j].field
		}
		return !keys[i].write && keys[j].write
	})
	return keys
}

// collectRoots gathers each node type's entry points: HandleCall plus the
// exported methods, minus directive-exempted declarations.
func (c *raceChecker) collectRoots(nodeTypes []*raceNodeType) {
	byKey := map[string]*raceNodeType{}
	for _, nt := range nodeTypes {
		byKey[nt.key] = nt
	}
	for _, node := range c.nodes {
		obj, s := node.obj, c.sums[node.obj]
		if s == nil {
			continue
		}
		named := receiverNamed(obj)
		if named == nil || named.Obj().Pkg() == nil {
			continue
		}
		nt := byKey[named.Obj().Pkg().Path()+"."+named.Obj().Name()]
		if nt == nil {
			continue
		}
		if obj.Name() != "HandleCall" && !obj.Exported() {
			continue
		}
		if c.directiveAt(s.node.decl.Pos()) != nil {
			continue
		}
		nt.roots = append(nt.roots, obj)
	}
}

// reportConflicts emits one diagnostic per conflicting field of one node
// type: the first write fact that lacks a common lock against some other
// concurrently-invocable access, with witness chains for both sides.
func (c *raceChecker) reportConflicts(nt *raceNodeType) {
	type fieldID struct{ owner, field string }
	byField := map[fieldID][]raceSide{}
	var order []fieldID
	for _, r := range nt.roots {
		s := c.sums[r]
		for _, k := range sortedRaceKeys(s.facts) {
			// Only this package's state is this node type's to protect:
			// state reached through the receiver but owned by another
			// package (the simnet fabric, the rdf store) has its own
			// synchronization discipline, vouched for where it lives.
			if !strings.HasPrefix(k.owner, nt.pkgPath+".") {
				continue
			}
			id := fieldID{k.owner, k.field}
			if byField[id] == nil {
				order = append(order, id)
			}
			byField[id] = append(byField[id], raceSide{root: r, key: k, fact: s.facts[k]})
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].owner != order[j].owner {
			return order[i].owner < order[j].owner
		}
		return order[i].field < order[j].field
	})
	for _, id := range order {
		sides := byField[id]
		for i := range sides {
			if !sides[i].key.write {
				continue
			}
			// Prefer a two-sided witness from a different entry point; a
			// conflict with a second invocation of the same root is the
			// fallback (an unguarded write always conflicts with itself).
			conflict := -1
			for j := range sides {
				if raceProtected(sides[i].fact, &sides[j]) {
					continue
				}
				if sides[j].root != sides[i].root {
					conflict = j
					break
				}
				if conflict < 0 {
					conflict = j
				}
			}
			if conflict >= 0 {
				c.reportPair(nt, &sides[i], &sides[conflict])
				break
			}
		}
	}
}

// raceProtected reports whether the write fact w shares a lock with side s
// strongly enough: a common class that w holds exclusively, and that s
// holds exclusively too if s also writes.
func raceProtected(w *raceFact, s *raceSide) bool {
	for cl, wm := range w.held {
		if !wm {
			continue
		}
		sm, ok := s.fact.held[cl]
		if !ok {
			continue
		}
		if s.key.write && !sm {
			continue
		}
		return true
	}
	return false
}

// reportPair renders one two-sided conflict.
func (c *raceChecker) reportPair(nt *raceNodeType, w, o *raceSide) {
	wChain, wPos, wPkg := c.raceChain(w)
	if wPkg == nil || !c.analyzed[wPkg] {
		return
	}
	field := shortClass(lockClass(w.key.owner + "." + w.key.field))
	dedup := fmt.Sprintf("%d|%s", wPos, field)
	if c.reported[dedup] {
		return
	}
	c.reported[dedup] = true
	var msg string
	if w.root == o.root && w.key == o.key {
		msg = fmt.Sprintf("%s: %s is not protected against a second concurrent invocation of the same entry point on one %s; hold an exclusive mutex or annotate //adhoclint:racefree(reason)",
			field, raceSideDesc("write", wChain, wPos, wPkg, w.fact), nt.display)
	} else {
		oChain, oPos, oPkg := c.raceChain(o)
		kind := "read"
		if o.key.write {
			kind = "write"
		}
		msg = fmt.Sprintf("%s: %s conflicts with %s — no common lock, and both entry points are concurrently invocable on one %s; hold a shared mutex or annotate //adhoclint:racefree(reason)",
			field,
			raceSideDesc("write", wChain, wPos, wPkg, w.fact),
			raceSideDesc(kind, oChain, oPos, oPkg, o.fact),
			nt.display)
	}
	c.report(wPkg, wPos, msg)
}

// raceChain walks the witness steps of a side's fact down to the direct
// access, returning the rendered entry-point-to-access call chain and the
// access position.
func (c *raceChecker) raceChain(sd *raceSide) ([]string, token.Pos, *Package) {
	chain := []string{funcDisplay(sd.root)}
	cur := sd.root
	seen := map[*types.Func]bool{cur: true}
	for {
		s := c.sums[cur]
		if s == nil {
			return chain, token.NoPos, nil
		}
		f := s.facts[sd.key]
		if f == nil {
			return chain, token.NoPos, nil
		}
		if f.via == nil || seen[f.via] || len(chain) > witnessMaxHops {
			return chain, f.pos, f.pkg
		}
		seen[f.via] = true
		cur = f.via
		chain = append(chain, funcDisplay(cur))
	}
}

// raceSideDesc renders one side of a conflict: kind, witness chain,
// position and held locks.
func raceSideDesc(kind string, chain []string, pos token.Pos, p *Package, f *raceFact) string {
	loc := ""
	if p != nil {
		loc = posSuffix(p, pos)
	}
	if len(chain) == 1 {
		return fmt.Sprintf("%s by %s%s (%s)", kind, chain[0], loc, heldDesc(f.held))
	}
	return fmt.Sprintf("%s via %s%s (%s)", kind, strings.Join(chain, " → "), loc, heldDesc(f.held))
}

// heldDesc renders a held-lock set.
func heldDesc(held map[lockClass]bool) string {
	if len(held) == 0 {
		return "no lock held"
	}
	classes := make([]string, 0, len(held))
	for cl, w := range held {
		s := shortClass(cl)
		if !w {
			s += " [read]"
		}
		classes = append(classes, s)
	}
	sort.Strings(classes)
	return "holding " + strings.Join(classes, ", ")
}

// directiveHygiene reports racefree directives that carry no reason or
// attach to nothing.
func (c *raceChecker) directiveHygiene() {
	for _, d := range c.prog.directives().sorted(dirRaceFree) {
		switch {
		case d.arg() == "":
			c.report(d.pkg, d.pos, "racefree directive needs a parenthesized reason: //adhoclint:racefree(reason)")
		case !c.used[d]:
			c.report(d.pkg, d.pos, "misplaced racefree directive: it attaches to a struct field or a node entry-point declaration (same line or the line above)")
		}
	}
}
