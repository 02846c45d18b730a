package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"slices"
	"sort"
	"strings"
)

// Diagnostic is one finding, printed as "file:line: [rule] message".
type Diagnostic struct {
	Pos  token.Position
	Rule string
	Msg  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Rule, d.Msg)
}

// ruleNames lists every rule in reporting order.
var ruleNames = []string{
	ruleGuarded, ruleLockBlocking, ruleLockOrder, ruleRPCProto, rulePayloadSize,
	ruleDeterminism, ruleGoroutine, ruleDiscardedError, ruleWireIso, ruleVTime,
	ruleAlloc, ruleCodec, ruleFaultPath, ruleRaceFree,
}

const (
	ruleGuarded        = "guarded-field"
	ruleLockBlocking   = "lock-blocking"
	ruleLockOrder      = "lock-order"
	ruleRPCProto       = "rpc-protocol"
	rulePayloadSize    = "payload-size"
	ruleDeterminism    = "determinism"
	ruleGoroutine      = "goroutine-hygiene"
	ruleDiscardedError = "discarded-error"
	ruleWireIso        = "wireiso"
	ruleVTime          = "vtime"
	ruleAlloc          = "alloc"
	ruleCodec          = "codec"
	ruleFaultPath      = "faultpath"
	ruleRaceFree       = "racefree"
)

// ruleDocs gives each rule its one-line description, shown by -list and
// embedded in the SARIF rule metadata.
var ruleDocs = map[string]string{
	ruleGuarded:        "fields declared after a struct's `mu` must only be touched while that mu is held",
	ruleLockBlocking:   "no blocking operation (channel op, simnet fabric call, sleep, wait) while a mutex is held, directly or through calls",
	ruleLockOrder:      "mutex acquisition order must be cycle-free across the program; no re-acquisition of a held mutex",
	ruleRPCProto:       "Method* constants, HandleCall dispatch switches and Network.Call/Send/Transfer sites must agree on methods and payload types",
	rulePayloadSize:    "every SizeBytes method must account for every field of its receiver struct (or carry an explaining ignore directive)",
	ruleDeterminism:    "no wall-clock (time.Now, time.Sleep, ...) or global math/rand in internal/ non-test code",
	ruleGoroutine:      "`go func` literals must be tied to a WaitGroup, done-channel or context",
	ruleDiscardedError: "no `_ =` discards of error values outside tests",
	ruleWireIso:        "RPC payloads must own their memory: values sent over simnet (Call/Send/Transfer requests, handler responses) must be fresh, deep-copied, wire-derived or documented //adhoclint:wireimmutable",
	ruleVTime:          "concurrency in internal/ must flow through the simnet timing model: no goroutine fan-out over fabric calls outside simnet.Parallel, no fabricated or dropped VTime in handlers, no order-dependent Parallel bodies",
	ruleAlloc:          "no avoidable per-message heap allocation (fmt.Sprintf, string accumulation, unsized container growth, interface boxing, closures in loops) in functions reachable from HandleCall dispatch or fabric calls; cold helpers carry //adhoclint:hotexempt",
	ruleCodec:          "every RPC wire type must be gob-registered and either carry a field-complete EncodeBinary/DecodeBinary pair wired into the codec dispatch or an explaining //adhoclint:gobfallback directive",
	ruleFaultPath:      "every fabric interaction must declare its failure disposition: discarded errors need faultpath(fire-and-forget), Parallel fan-outs declare abort-all or collect-partial, mutate-then-send paths declare compensated, retried handlers deduplicate and declare idempotent, Retry closures depart at the attempt time",
	ruleRaceFree:       "concurrently-invocable node entry points (HandleCall handlers and exported methods of the same node type) must not conflict on a node field without a common mutex class; exempt with //adhoclint:racefree(reason)",
}

// LintPackage runs every enabled rule over one package and returns the
// findings sorted by position, with //adhoclint:ignore directives applied.
func LintPackage(p *Package, enabled map[string]bool) []Diagnostic {
	on := func(rule string) bool { return enabled == nil || enabled[rule] }
	var diags []Diagnostic
	if on(ruleGuarded) {
		diags = append(diags, checkGuardedFields(p)...)
	}
	if on(ruleLockBlocking) {
		diags = append(diags, checkLockBlocking(p)...)
	}
	if on(ruleDeterminism) {
		diags = append(diags, checkDeterminism(p)...)
	}
	if on(ruleGoroutine) {
		diags = append(diags, checkGoroutines(p)...)
	}
	if on(ruleDiscardedError) {
		diags = append(diags, checkDiscardedErrors(p)...)
	}
	ignores := directiveTable{}
	ignores.scan(p)
	diags = ignores.filter(diags)
	sortDiagnostics(diags)
	return diags
}

// LintProgram runs the whole-program rules (lock-order, the
// interprocedural half of lock-blocking, rpc-protocol, payload-size,
// wireiso, vtime, alloc, codec) over the analyzed packages together, with
// ignore directives from every analyzed package applied.
func LintProgram(prog *Program, enabled map[string]bool) []Diagnostic {
	var diags []Diagnostic
	diags = append(diags, checkProgramLocks(prog, enabled)...)
	diags = append(diags, checkRPCProtocol(prog, enabled)...)
	diags = append(diags, checkPayloadSizes(prog, enabled)...)
	diags = append(diags, checkWireIsolation(prog, enabled)...)
	diags = append(diags, checkVTime(prog, enabled)...)
	diags = append(diags, checkAlloc(prog, enabled)...)
	diags = append(diags, checkCodec(prog, enabled)...)
	diags = append(diags, checkFaultPath(prog, enabled)...)
	diags = append(diags, checkRaceFree(prog, enabled)...)
	diags = prog.directives().filter(diags)
	sortDiagnostics(diags)
	return diags
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos.Filename != diags[j].Pos.Filename {
			return diags[i].Pos.Filename < diags[j].Pos.Filename
		}
		if diags[i].Pos.Line != diags[j].Pos.Line {
			return diags[i].Pos.Line < diags[j].Pos.Line
		}
		if diags[i].Rule != diags[j].Rule {
			return diags[i].Rule < diags[j].Rule
		}
		return diags[i].Msg < diags[j].Msg
	})
}

// diagAt builds a diagnostic at a token position.
func diagAt(p *Package, pos token.Pos, rule, msg string) Diagnostic {
	return Diagnostic{Pos: p.Fset.Position(pos), Rule: rule, Msg: msg}
}

// filter drops the diagnostics suppressed by an "//adhoclint:ignore
// rule,... reason" directive on the same line or the line directly above.
// A directive suppresses only the rules it names.
func (t directiveTable) filter(diags []Diagnostic) []Diagnostic {
	var kept []Diagnostic
	for _, d := range diags {
		if !t.ignores(d, d.Pos.Line) && !t.ignores(d, d.Pos.Line-1) {
			kept = append(kept, d)
		}
	}
	return kept
}

func (t directiveTable) ignores(d Diagnostic, line int) bool {
	dir := t[lineKey{d.Pos.Filename, line}]
	return dir != nil && dir.kind == dirIgnore && slices.Contains(parseIgnoreRules(dir.rest), d.Rule)
}

// parseIgnoreRules parses the rule list of an ignore directive: a
// comma-separated sequence of rule names, each optionally followed by a
// parenthesized reason — "wireiso(rows copied by caller), vtime". Free
// text that is not a rule name ends the list; a directive whose list
// comes out empty (a bare ignore, or a misspelled rule name) suppresses
// nothing.
func parseIgnoreRules(rest string) []string {
	rules := []string{}
	i := 0
	for {
		for i < len(rest) && (rest[i] == ' ' || rest[i] == '\t') {
			i++
		}
		start := i
		for i < len(rest) && isIgnoreIdentChar(rest[i]) {
			i++
		}
		name := rest[start:i]
		if !isRuleName(name) {
			break
		}
		rules = append(rules, name)
		if i < len(rest) && rest[i] == '(' {
			depth := 0
			for ; i < len(rest); i++ {
				if rest[i] == '(' {
					depth++
				}
				if rest[i] == ')' {
					depth--
					if depth == 0 {
						i++
						break
					}
				}
			}
		}
		for i < len(rest) && (rest[i] == ' ' || rest[i] == '\t') {
			i++
		}
		if i >= len(rest) || rest[i] != ',' {
			break
		}
		i++
	}
	return rules
}

func isIgnoreIdentChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
		c >= '0' && c <= '9' || c == '-' || c == '_'
}

func isRuleName(s string) bool {
	for _, r := range ruleNames {
		if r == s {
			return true
		}
	}
	return false
}

// internalPackage reports whether the package lives under internal/ —
// the scope of the determinism rule.
func internalPackage(p *Package) bool {
	return strings.Contains(p.ImportPath, "/internal/") ||
		strings.HasSuffix(p.ImportPath, "/internal")
}

// cmdPackage reports whether the package lives under the module's cmd/
// tree — included in the faultpath and vtime whole-program scopes.
func cmdPackage(p *Package, modPath string) bool {
	return strings.HasPrefix(p.ImportPath, modPath+"/cmd/")
}

// recvName returns the receiver identifier of a method declaration, or ""
// for functions and anonymous receivers.
func recvName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) != 1 || len(fn.Recv.List[0].Names) != 1 {
		return ""
	}
	return fn.Recv.List[0].Names[0].Name
}

// recvTypeName returns the base type name of a method's receiver
// (dereferencing a pointer receiver), or "".
func recvTypeName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) != 1 {
		return ""
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	// generic receivers look like T[P]
	if idx, ok := t.(*ast.IndexExpr); ok {
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
