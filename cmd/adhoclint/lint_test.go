package main

import (
	"fmt"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// Fixture packages under testdata/src each exercise one rule. Expected
// findings are annotated in the fixture source with `// want "fragment"`
// comments: every diagnostic on that line must contain the fragment, and
// every fragment must be matched by exactly one diagnostic.

var wantRe = regexp.MustCompile(`want "([^"]*)"`)

func rules(names ...string) map[string]bool {
	m := map[string]bool{}
	for _, n := range names {
		m[n] = true
	}
	return m
}

// loadFixture parses and type-checks one testdata package under a
// synthetic import path (so the determinism rule's internal/ scoping can
// be exercised without moving fixtures into the real tree).
func loadFixture(t *testing.T, name, importPath string) *Package {
	t.Helper()
	return loadFixtureProgram(t, name, importPath).Pkgs[0]
}

// collectWants maps "file:line" to the expected message fragments there.
func collectWants(p *Package) map[string][]string {
	wants := map[string][]string{}
	for _, f := range p.AllFiles() {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					pos := p.Fset.Position(c.Pos())
					key := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
					wants[key] = append(wants[key], m[1])
				}
			}
		}
	}
	return wants
}

func checkFixture(t *testing.T, name, importPath string, enabled map[string]bool) {
	t.Helper()
	p := loadFixture(t, name, importPath)
	matchWants(t, collectWants(p), LintPackage(p, enabled))
}

// Every fixture gets its own loader, so one fixture's handlers never leak
// into another's whole-program rules through loadedPackages. The loaders
// share only the standard library: one FileSet and one source importer,
// serialized because the source importer is not safe for concurrent use.
var (
	fixtureFset = token.NewFileSet()
	fixtureStd  = &lockedImporter{imp: importer.ForCompiler(fixtureFset, "source", nil)}
)

type lockedImporter struct {
	mu  sync.Mutex
	imp types.Importer
}

func (li *lockedImporter) Import(path string) (*types.Package, error) {
	li.mu.Lock()
	defer li.mu.Unlock()
	return li.imp.Import(path)
}

// loadFixtureProgram wraps one fixture package in a Program so the
// whole-program rules can run over it (dependencies resolved through the
// loader are visible to the rules but not reported on).
func loadFixtureProgram(t *testing.T, name, importPath string) *Program {
	t.Helper()
	modRoot, modPath, err := findModule(".")
	if err != nil {
		t.Fatalf("findModule: %v", err)
	}
	l := newLoader(modRoot, modPath)
	l.fset, l.std = fixtureFset, fixtureStd
	got, err := l.load(filepath.Join("testdata", "src", name), importPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	if len(got.pkg.TypeErrs) > 0 {
		t.Fatalf("fixture %s has type errors: %v", name, got.pkg.TypeErrs)
	}
	return newProgram(l, []*Package{got.pkg})
}

func checkProgramFixture(t *testing.T, name, importPath string, enabled map[string]bool) {
	t.Helper()
	prog := loadFixtureProgram(t, name, importPath)
	matchWants(t, collectWants(prog.Pkgs[0]), LintProgram(prog, enabled))
}

// matchWants pairs each diagnostic with one want fragment on its line.
func matchWants(t *testing.T, wants map[string][]string, diags []Diagnostic) {
	t.Helper()
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", filepath.Base(d.Pos.Filename), d.Pos.Line)
		frags := wants[key]
		matched := -1
		for i, frag := range frags {
			if strings.Contains(d.Msg, frag) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		wants[key] = append(frags[:matched], frags[matched+1:]...)
	}
	for key, frags := range wants {
		for _, frag := range frags {
			t.Errorf("%s: expected a diagnostic containing %q, got none", key, frag)
		}
	}
}

func TestGuardedFieldRule(t *testing.T) {
	t.Parallel()
	checkFixture(t, "guarded", "adhocshare/fixture/guarded", rules(ruleGuarded))
}

// The locked fixture deliberately breaks the guarded-field convention
// (channel fields sit after mu but are used unlocked once released), so
// only the lock-blocking rule runs over it.
func TestLockBlockingRule(t *testing.T) {
	t.Parallel()
	checkFixture(t, "locked", "adhocshare/fixture/locked", rules(ruleLockBlocking))
}

func TestDeterminismRule(t *testing.T) {
	t.Parallel()
	checkFixture(t, "determinism", "adhocshare/internal/fixture/determinism", rules(ruleDeterminism))
}

// The determinism rule only covers internal/ packages: the same fixture
// loaded under a non-internal path must be silent.
func TestDeterminismRuleSkipsNonInternal(t *testing.T) {
	t.Parallel()
	p := loadFixture(t, "determinism", "adhocshare/fixture/determinism")
	if diags := LintPackage(p, rules(ruleDeterminism)); len(diags) != 0 {
		t.Errorf("non-internal package should be exempt, got %d diagnostics: %v", len(diags), diags)
	}
}

func TestGoroutineRule(t *testing.T) {
	t.Parallel()
	checkFixture(t, "goroutines", "adhocshare/fixture/goroutines", rules(ruleGoroutine))
}

func TestDiscardedErrorRule(t *testing.T) {
	t.Parallel()
	checkFixture(t, "discarderr", "adhocshare/fixture/discarderr", rules(ruleDiscardedError))
}

// The clean fixture follows every convention (including one violation
// suppressed via //adhoclint:ignore) and must produce zero findings with
// all rules enabled — loaded under an internal path so the determinism
// rule is in scope and the directive is what silences it.
func TestCleanFixtureAllRules(t *testing.T) {
	t.Parallel()
	p := loadFixture(t, "clean", "adhocshare/internal/fixture/clean")
	if diags := LintPackage(p, nil); len(diags) != 0 {
		for _, d := range diags {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

func TestLockOrderRule(t *testing.T) {
	t.Parallel()
	checkProgramFixture(t, "lockorder", "adhocshare/fixture/lockorder", rules(ruleLockOrder, ruleLockBlocking))
}

// The lock-order cycle diagnostic must carry witness call chains for both
// edges, including the transitive one through touchA.
func TestLockOrderCycleWitness(t *testing.T) {
	t.Parallel()
	prog := loadFixtureProgram(t, "lockorder", "adhocshare/fixture/lockorder")
	var cycle *Diagnostic
	for _, d := range LintProgram(prog, rules(ruleLockOrder)) {
		if strings.Contains(d.Msg, "lock-order cycle") {
			d := d
			cycle = &d
		}
	}
	if cycle == nil {
		t.Fatal("no lock-order cycle diagnostic reported")
	}
	for _, frag := range []string{
		"lockorder.A.mu → lockorder.B.mu → lockorder.A.mu",
		"(*A).Bump locks lockorder.B.mu while holding lockorder.A.mu",
		"calls lockorder.(*B).touchA, which locks lockorder.A.mu",
	} {
		if !strings.Contains(cycle.Msg, frag) {
			t.Errorf("cycle diagnostic missing %q:\n%s", frag, cycle.Msg)
		}
	}
}

func TestRPCProtocolRule(t *testing.T) {
	t.Parallel()
	checkProgramFixture(t, "rpcproto", "adhocshare/fixture/rpcproto", rules(ruleRPCProto))
}

func TestPayloadSizeRule(t *testing.T) {
	t.Parallel()
	checkProgramFixture(t, "payloadsize", "adhocshare/fixture/payloadsize", rules(rulePayloadSize))
}

func TestWireIsoRule(t *testing.T) {
	t.Parallel()
	checkProgramFixture(t, "wireiso", "adhocshare/fixture/wireiso", rules(ruleWireIso))
}

// Wire-isolation diagnostics must carry a witness flow chain naming the
// payload field, the aliased owner, and — for interprocedural findings —
// the helper the argument flows through.
func TestWireIsoWitnessChain(t *testing.T) {
	t.Parallel()
	prog := loadFixtureProgram(t, "wireiso", "adhocshare/fixture/wireiso")
	diags := LintProgram(prog, rules(ruleWireIso))
	var alias, oblig *Diagnostic
	for _, d := range diags {
		d := d
		switch {
		case strings.Contains(d.Msg, "response of"):
			alias = &d
		case strings.Contains(d.Msg, "flows to the wire"):
			oblig = &d
		}
	}
	if alias == nil {
		t.Fatal("no aliased-response diagnostic reported")
	}
	for _, frag := range []string{
		"response of wireiso.(*Node).HandleCall",
		"wireiso.RowsResp.Rows",
		"n.rows aliases mutable state of *wireiso.Node (field rows)",
	} {
		if !strings.Contains(alias.Msg, frag) {
			t.Errorf("aliased-response diagnostic missing %q:\n%s", frag, alias.Msg)
		}
	}
	if oblig == nil {
		t.Fatal("no caller-obligation diagnostic reported")
	}
	for _, frag := range []string{"n.rows", "wireiso.(*Node).ship"} {
		if !strings.Contains(oblig.Msg, frag) {
			t.Errorf("obligation diagnostic missing %q:\n%s", frag, oblig.Msg)
		}
	}
}

// The vtime fixture must sit under internal/: the rule only covers the
// simulated node implementations.
func TestVTimeRule(t *testing.T) {
	t.Parallel()
	checkProgramFixture(t, "vtime", "adhocshare/internal/fixture/vtime", rules(ruleVTime))
}

// The vtime rule loaded under a non-internal path must be silent.
func TestVTimeRuleSkipsNonInternal(t *testing.T) {
	t.Parallel()
	prog := loadFixtureProgram(t, "vtime", "adhocshare/fixture/vtime")
	if diags := LintProgram(prog, rules(ruleVTime)); len(diags) != 0 {
		t.Errorf("non-internal package should be exempt, got %d diagnostics: %v", len(diags), diags)
	}
}

// Both v3 whole-program rules must be clean on the production tree: every
// payload that aliased node state is now deep-copied or documented
// immutable, and all fabric fan-out flows through simnet.Parallel.
func TestWireRulesCleanOnRealTree(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("skipping whole-module load in -short mode")
	}
	var buf strings.Builder
	n, err := run([]string{"./..."}, rules(ruleWireIso, ruleVTime, ruleAlloc, ruleCodec, ruleFaultPath), "", &buf)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if n != 0 {
		t.Errorf("expected zero wireiso/vtime/alloc/codec/faultpath findings on the real tree, got %d:\n%s", n, buf.String())
	}
}

func TestAllocRule(t *testing.T) {
	t.Parallel()
	checkProgramFixture(t, "alloc", "adhocshare/internal/fixture/alloc", rules(ruleAlloc))
}

// The alloc rule loaded under a non-internal path must be silent.
func TestAllocRuleSkipsNonInternal(t *testing.T) {
	t.Parallel()
	prog := loadFixtureProgram(t, "alloc", "adhocshare/fixture/alloc")
	if diags := LintProgram(prog, rules(ruleAlloc)); len(diags) != 0 {
		t.Errorf("non-internal package should be exempt, got %d diagnostics: %v", len(diags), diags)
	}
}

// Every alloc finding names why its function is hot: a chain from the
// HandleCall entry point, or the fabric call the function reaches.
func TestAllocWitnessChains(t *testing.T) {
	t.Parallel()
	prog := loadFixtureProgram(t, "alloc", "adhocshare/internal/fixture/alloc")
	diags := LintProgram(prog, rules(ruleAlloc))
	byFrag := func(frag string) *Diagnostic {
		for _, d := range diags {
			if strings.Contains(d.Msg, frag) {
				d := d
				return &d
			}
		}
		return nil
	}
	cases := []struct{ finding, witness string }{
		// Handler-reached: BFS chain back to the dispatch entry point.
		{"labels grows by append", "reached from alloc.(*Node).HandleCall → alloc.(*Node).echo"},
		{"map counts", "reached from alloc.(*Node).HandleCall → alloc.(*Node).countNames"},
		// Direct fabric caller: the finding names the call it performs.
		{`performs fabric Call of "al.echo"`, "fmt.Sprintf"},
	}
	for _, c := range cases {
		d := byFrag(c.finding)
		if d == nil {
			t.Errorf("no diagnostic containing %q", c.finding)
			continue
		}
		if !strings.Contains(d.Msg, c.witness) {
			t.Errorf("diagnostic %q lacks witness %q:\n%s", c.finding, c.witness, d.Msg)
		}
	}
	// The indirect fabric toucher reports its downward chain.
	var probeAll *Diagnostic
	for _, d := range diags {
		if strings.Contains(d.Msg, `reaches fabric Call of "al.echo" via alloc.(*Node).ProbeAll → alloc.(*Node).Probe`) {
			d := d
			probeAll = &d
		}
	}
	if probeAll == nil {
		t.Errorf("no diagnostic with a downward fabric witness chain for ProbeAll; got:\n%s", diagDump(diags))
	}
}

func diagDump(diags []Diagnostic) string {
	var sb strings.Builder
	for _, d := range diags {
		sb.WriteString(d.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

func TestCodecRule(t *testing.T) {
	t.Parallel()
	checkProgramFixture(t, "codec", "adhocshare/internal/fixture/codec", rules(ruleCodec))
}

func TestFaultPathRule(t *testing.T) {
	t.Parallel()
	checkProgramFixture(t, "faultpath", "adhocshare/internal/fixture/faultpath", rules(ruleFaultPath))
}

// The faultpath rule covers internal/ and cmd/ packages only; the same
// fixture loaded outside both trees must stay silent.
func TestFaultPathSkipsOutOfScope(t *testing.T) {
	t.Parallel()
	prog := loadFixtureProgram(t, "faultpath", "adhocshare/fixture/faultpath")
	if diags := LintProgram(prog, rules(ruleFaultPath)); len(diags) != 0 {
		t.Errorf("out-of-scope package should be exempt, got %d diagnostics:\n%s", len(diags), diagDump(diags))
	}
}

// Faultpath findings carry witnesses: the mutate-before-send finding names
// the call chain carrying the mutation, and the retried-handler finding
// names the Retry site's enclosing function.
func TestFaultPathWitnessChains(t *testing.T) {
	t.Parallel()
	prog := loadFixtureProgram(t, "faultpath", "adhocshare/internal/fixture/faultpath")
	diags := LintProgram(prog, rules(ruleFaultPath))
	cases := []struct{ finding, witness string }{
		{"via faultpath.(*Node).registerVia", "faultpath.(*Node).registerVia → faultpath.(*Node).register"},
		{`MethodPut ("fp.put") is retried from`, "faultpath.(*Node).StoreAll"},
	}
	for _, c := range cases {
		var found *Diagnostic
		for _, d := range diags {
			if strings.Contains(d.Msg, c.finding) {
				d := d
				found = &d
				break
			}
		}
		if found == nil {
			t.Errorf("no diagnostic containing %q; got:\n%s", c.finding, diagDump(diags))
			continue
		}
		if !strings.Contains(found.Msg, c.witness) {
			t.Errorf("diagnostic %q lacks witness %q:\n%s", c.finding, c.witness, found.Msg)
		}
	}
}

// The -list output is pinned by a golden file so rule renames/additions
// are deliberate.
func TestListGolden(t *testing.T) {
	var buf strings.Builder
	printRules(&buf)
	goldenPath := filepath.Join("testdata", "list.golden")
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden file: %v", err)
	}
	if buf.String() != string(want) {
		t.Errorf("-list output differs from %s:\n got:\n%s\nwant:\n%s", goldenPath, buf.String(), want)
	}
}

func TestParseRules(t *testing.T) {
	if m, err := parseRules(""); err != nil || m != nil {
		t.Errorf("parseRules(\"\") = %v, %v; want nil, nil", m, err)
	}
	m, err := parseRules("determinism, discarded-error")
	if err != nil {
		t.Fatalf("parseRules: %v", err)
	}
	if !m[ruleDeterminism] || !m[ruleDiscardedError] || len(m) != 2 {
		t.Errorf("parseRules picked wrong rules: %v", m)
	}
	if _, err := parseRules("no-such-rule"); err == nil {
		t.Errorf("parseRules accepted an unknown rule")
	}
}
