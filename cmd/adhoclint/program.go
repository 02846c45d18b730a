package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Program is the whole-program view the interprocedural rules analyze:
// every package selected on the command line, loaded and type-checked
// against one shared FileSet, plus the memoized model of the module that
// every rule reads:
//
//   - the declaration index (funcs): every production function
//     declaration of the loaded packages with its static call sites and
//     its fabric call sites;
//   - the handlers (HandleCall implementations) and the cases of their
//     `switch method` dispatch (handlerCases);
//   - the fabric-reach closure with its witness edges (reach);
//   - the //adhoclint: directive table (directives).
//
// The model covers the loaded packages — the analyzed ones and their
// module-internal dependencies — so that linting one package still sees
// the handlers, constants and callees declared elsewhere; rules attach
// diagnostics only to analyzed packages.
type Program struct {
	Pkgs       []*Package
	loader     *loader
	modPath    string
	simnetPath string

	funcs   []*funcNode
	funcOf  map[*types.Func]*funcNode
	cases   []*handlerCase
	fabric  *fabricReach
	dirs    directiveTable
	payload *types.Interface
}

// newProgram assembles a program over the analyzed packages. The loader
// must be the one that loaded them (its cache resolves cross-package
// types).
func newProgram(l *loader, pkgs []*Package) *Program {
	return &Program{Pkgs: pkgs, loader: l, modPath: l.modPath, simnetPath: l.modPath + "/internal/simnet"}
}

// simnetTypes returns the checked internal/simnet package, or nil when the
// analyzed program never imports it.
func (prog *Program) simnetTypes() *types.Package {
	return prog.loader.typesFor(prog.simnetPath)
}

// payloadIface returns the simnet.Payload interface, or nil when the
// program never imports simnet.
func (prog *Program) payloadIface() *types.Interface {
	if prog.payload == nil {
		if simnet := prog.simnetTypes(); simnet != nil {
			if obj := simnet.Scope().Lookup("Payload"); obj != nil {
				prog.payload, _ = obj.Type().Underlying().(*types.Interface)
			}
		}
	}
	return prog.payload
}

// isSimnetFunc reports whether f is the simnet package-level function or
// method of the given name (Parallel, Retry, ...).
func (prog *Program) isSimnetFunc(f *types.Func, name string) bool {
	return f != nil && f.Name() == name && f.Pkg() != nil && f.Pkg().Path() == prog.simnetPath
}

// loadedPackages returns every successfully checked module package the
// loader has seen — the analyzed packages plus their module-internal
// dependencies — sorted by import path.
func (prog *Program) loadedPackages() []*Package {
	paths := make([]string, 0, len(prog.loader.cache))
	for path, got := range prog.loader.cache {
		if got.pkg != nil && got.pkg.Info != nil {
			paths = append(paths, path)
		}
	}
	sort.Strings(paths)
	out := make([]*Package, 0, len(paths))
	for _, path := range paths {
		out = append(out, prog.loader.cache[path].pkg)
	}
	return out
}

// analyzedSet indexes the packages diagnostics may be reported on.
func (prog *Program) analyzedSet() map[*Package]bool {
	set := make(map[*Package]bool, len(prog.Pkgs))
	for _, p := range prog.Pkgs {
		set[p] = true
	}
	return set
}

// allFuncs returns the declaration index: every production function
// declaration with a body in the loaded packages, in import-path, file and
// declaration order, each with its static and fabric call sites. Test
// files are skipped: they are not type-checked, and the whole-program
// rules all need types.
func (prog *Program) allFuncs() []*funcNode {
	if prog.funcOf != nil {
		return prog.funcs
	}
	prog.funcOf = map[*types.Func]*funcNode{}
	for _, p := range prog.loadedPackages() {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				obj, ok := p.Info.Defs[fn.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &funcNode{obj: obj, decl: fn, pkg: p,
					calls: collectCalls(p, fn), fabric: fabricCallsIn(p, fn, prog.simnetPath)}
				prog.funcs = append(prog.funcs, node)
				prog.funcOf[obj] = node
			}
		}
	}
	return prog.funcs
}

// funcDecl returns the declaration of a function, or nil when it has no
// source in the loaded packages (stdlib, interface methods).
func (prog *Program) funcDecl(obj *types.Func) *funcNode {
	prog.allFuncs()
	return prog.funcOf[obj]
}

// analyzedFuncs returns the declarations of the analyzed packages, in
// declaration-index order: the static call graph the lock, race and
// payload-size rules walk. Interface-method calls (simnet's
// Handler.HandleCall dispatch included) are deliberately not resolved:
// following them would smear every handler's behavior onto every fabric
// call site.
func (prog *Program) analyzedFuncs() []*funcNode {
	analyzed := prog.analyzedSet()
	var out []*funcNode
	for _, node := range prog.allFuncs() {
		if analyzed[node.pkg] {
			out = append(out, node)
		}
	}
	return out
}

// fabricCalls returns every Network.Call/Send/Transfer site of the loaded
// packages, in declaration order.
func (prog *Program) fabricCalls() []*fabricCall {
	var out []*fabricCall
	for _, node := range prog.allFuncs() {
		out = append(out, node.fabric...)
	}
	return out
}

// handlerCases returns every case of the `switch method` dispatch inside
// the HandleCall implementations of the loaded packages.
func (prog *Program) handlerCases() []*handlerCase {
	if prog.cases == nil {
		prog.cases = []*handlerCase{}
		for _, node := range prog.allFuncs() {
			if node.decl.Name.Name == "HandleCall" {
				prog.cases = append(prog.cases, collectHandlerCases(node)...)
			}
		}
	}
	return prog.cases
}

// isHandler reports whether the function is a handler: a HandleCall
// method with the simnet Handler result shape — a dispatch entry point.
func (prog *Program) isHandler(node *funcNode) bool {
	return node.obj.Name() == "HandleCall" && handlerShape(node.pkg, node.decl, prog.simnetPath, nil)
}

// fabricReach is the "reaches the fabric" closure: a function reaches the
// fabric when its body performs a Network.Call/Send/Transfer, or when it
// statically calls a function that does. Calls into the observability
// packages never carry the mark (see observability.go).
type fabricReach struct {
	direct map[*types.Func]*fabricCall // first fabric call in the body
	via    map[*types.Func]*types.Func // callee through which the mark arrived
}

// touches reports whether the function reaches the fabric.
func (r *fabricReach) touches(f *types.Func) bool {
	return r.direct[f] != nil || r.via[f] != nil
}

// reach returns the fabric-reach closure shared by the rules that use it
// without barriers (faultpath, vtime).
func (prog *Program) reach() *fabricReach {
	if prog.fabric == nil {
		prog.fabric = prog.computeReach(nil)
	}
	return prog.fabric
}

// computeReach closes "reaches the fabric" over the static call edges of
// the declaration index, level by level, so each witness edge points one
// step closer to a direct fabric call and the first such callee in source
// order wins. Barrier functions (nil: none) neither carry nor propagate
// the mark.
func (prog *Program) computeReach(barrier map[*types.Func]bool) *fabricReach {
	r := &fabricReach{direct: map[*types.Func]*fabricCall{}, via: map[*types.Func]*types.Func{}}
	for _, node := range prog.allFuncs() {
		if len(node.fabric) > 0 && !barrier[node.obj] {
			r.direct[node.obj] = node.fabric[0]
		}
	}
	for {
		next := map[*types.Func]*types.Func{}
		for _, node := range prog.allFuncs() {
			if barrier[node.obj] || r.touches(node.obj) {
				continue
			}
			for _, c := range node.calls {
				if r.touches(c.callee) && !observabilityNeutral(c.callee, prog.modPath) {
					next[node.obj] = c.callee
					break
				}
			}
		}
		if len(next) == 0 {
			return r
		}
		for obj, callee := range next {
			r.via[obj] = callee
		}
	}
}

// directives returns the table of every //adhoclint: comment of the loaded
// packages.
func (prog *Program) directives() directiveTable {
	if prog.dirs == nil {
		prog.dirs = directiveTable{}
		for _, got := range prog.loader.cache {
			if got.pkg != nil {
				prog.dirs.scan(got.pkg)
			}
		}
	}
	return prog.dirs
}

// The directive kinds. A directive is a line comment
// "//adhoclint:<kind>..." and attaches to the code on its own line or on
// the line directly below it (faultpath also reads function doc comments).
const (
	dirIgnore        = "ignore"
	dirFaultPath     = "faultpath"
	dirRaceFree      = "racefree"
	dirHotExempt     = "hotexempt"
	dirWireImmutable = "wireimmutable"
	dirGobFallback   = "gobfallback"
)

var directiveKinds = []string{dirIgnore, dirFaultPath, dirRaceFree, dirHotExempt, dirWireImmutable, dirGobFallback}

// directive is one //adhoclint: comment.
type directive struct {
	kind string
	rest string // the text after the kind
	pkg  *Package
	pos  token.Pos
}

// arg returns the parenthesized argument of a directive —
// "(collect-partial, reason)" → "collect-partial, reason" — or "" when it
// has none. The argument may itself contain commas and parentheses.
func (d *directive) arg() string {
	rest := strings.TrimSpace(d.rest)
	if !strings.HasPrefix(rest, "(") {
		return ""
	}
	body := rest[1:]
	if i := strings.LastIndex(body, ")"); i >= 0 {
		body = body[:i]
	}
	return strings.TrimSpace(body)
}

// lineKey identifies one source line.
type lineKey struct {
	file string
	line int
}

// directiveTable indexes directives by the file and line they sit on.
type directiveTable map[lineKey]*directive

// scan records the package's directives. Test files are not type-checked,
// so only their ignore directives apply.
func (t directiveTable) scan(p *Package) {
	for i, f := range p.AllFiles() {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), "adhoclint:")
				if !ok {
					continue
				}
				for _, kind := range directiveKinds {
					rest, ok := strings.CutPrefix(text, kind)
					if !ok || i >= len(p.Files) && kind != dirIgnore {
						continue
					}
					pos := p.Fset.Position(c.Pos())
					t[lineKey{pos.Filename, pos.Line}] = &directive{kind: kind, rest: rest, pkg: p, pos: c.Pos()}
					break
				}
			}
		}
	}
}

// directiveAt returns the directive of the given kind attached to a
// position: on its line or, failing that, the line directly above.
func (prog *Program) directiveAt(kind string, pos token.Pos) *directive {
	position := prog.loader.fset.Position(pos)
	for _, line := range []int{position.Line, position.Line - 1} {
		if d := prog.directives()[lineKey{position.Filename, line}]; d != nil && d.kind == kind {
			return d
		}
	}
	return nil
}

// sorted returns the directives of one kind in position order.
func (t directiveTable) sorted(kind string) []*directive {
	var out []*directive
	for _, d := range t {
		if d.kind == kind {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}

// reporter collects one rule's findings, keeping only those in analyzed
// packages.
type reporter struct {
	rule     string
	analyzed map[*Package]bool
	diags    []Diagnostic
}

func (r *reporter) report(p *Package, pos token.Pos, msg string) {
	if r.analyzed[p] {
		r.diags = append(r.diags, diagAt(p, pos, r.rule, msg))
	}
}
