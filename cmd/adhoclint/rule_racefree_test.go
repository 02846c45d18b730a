package main

import (
	"strings"
	"testing"
)

func TestRaceFreeRule(t *testing.T) {
	t.Parallel()
	checkProgramFixture(t, "racefree", "adhocshare/fixture/racefree", rules(ruleRaceFree))
}

// Every racefree finding carries a two-sided witness: the write chain with
// its held locks, the conflicting access with its held locks, and the
// escape-hatch hint.
func TestRaceFreeWitnessChains(t *testing.T) {
	t.Parallel()
	prog := loadFixtureProgram(t, "racefree", "adhocshare/fixture/racefree")
	diags := LintProgram(prog, rules(ruleRaceFree))
	byFrag := func(frag string) *Diagnostic {
		for _, d := range diags {
			if strings.Contains(d.Msg, frag) {
				d := d
				return &d
			}
		}
		return nil
	}
	cases := []struct {
		finding  string
		contains []string
	}{
		// Unguarded write vs handler read: both sides named with lock state.
		{"racefree.Node.count", []string{
			"write by racefree.(*Node).Reset",
			"(no lock held)",
			"conflicts with read by racefree.(*Node).HandleCall",
			"concurrently invocable on one racefree.Node",
			"//adhoclint:racefree(reason)",
		}},
		// Interprocedural: the chain walks from the entry point to the
		// helper that performs the access.
		{"racefree.Node.hits", []string{
			"write via racefree.(*Node).Touch → racefree.(*Node).bump",
			"read via racefree.(*Node).HandleCall → racefree.(*Node).readHits",
			"holding racefree.Node.statMu",
		}},
		// Wrong-lock pair: both held classes are rendered, making the
		// missing common class visible.
		{"racefree.Node.gauge", []string{
			"holding racefree.Node.aMu",
			"holding racefree.Node.bMu",
			"no common lock",
		}},
	}
	for _, c := range cases {
		d := byFrag(c.finding)
		if d == nil {
			t.Errorf("no diagnostic containing %q", c.finding)
			continue
		}
		for _, frag := range c.contains {
			if !strings.Contains(d.Msg, frag) {
				t.Errorf("diagnostic for %s lacks %q:\n%s", c.finding, frag, d.Msg)
			}
		}
	}
}

// One diagnostic per conflicting field: the fixture's three bad fields
// yield exactly three findings (plus the two directive-hygiene ones),
// never one per conflicting pair.
func TestRaceFreeOneFindingPerField(t *testing.T) {
	t.Parallel()
	prog := loadFixtureProgram(t, "racefree", "adhocshare/fixture/racefree")
	perField := map[string]int{}
	for _, d := range LintProgram(prog, rules(ruleRaceFree)) {
		for _, f := range []string{"Node.count", "Node.hits", "Node.gauge"} {
			if strings.Contains(d.Msg, "racefree."+f+":") {
				perField[f]++
			}
		}
	}
	for _, f := range []string{"Node.count", "Node.hits", "Node.gauge"} {
		if perField[f] != 1 {
			t.Errorf("field %s: %d findings, want exactly 1", f, perField[f])
		}
	}
}

// The racefree rule must be clean on the production tree: every node field
// either shares a mutex class across its entry points or carries a
// documented racefree exemption (the dynamic corroborator is the
// ConcurrentDelivery -race matrix in internal/experiments).
func TestRaceFreeCleanOnRealTree(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("skipping whole-module load in -short mode")
	}
	var buf strings.Builder
	n, err := run([]string{"./..."}, rules(ruleRaceFree), "", &buf)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if n != 0 {
		t.Errorf("expected zero racefree findings on the real tree, got %d:\n%s", n, buf.String())
	}
}

// Regression for the pre-fix finding on the real tree: a node whose
// adaptive-state pointer is installed by a setup method with a plain store
// while HandleCall reads it — the exact shape overlay.IndexNode.hot had
// before hotRef/hotMu — must be flagged.
func TestRaceFreeCatchesLatePointerInstall(t *testing.T) {
	t.Parallel()
	prog := loadFixtureProgram(t, "racefree_hotinstall", "adhocshare/fixture/racefree_hotinstall")
	diags := LintProgram(prog, rules(ruleRaceFree))
	if len(diags) != 1 {
		t.Fatalf("want exactly one finding, got %d: %v", len(diags), diags)
	}
	msg := diags[0].Msg
	for _, frag := range []string{
		"racefree_hotinstall.Node.hot",
		"write by racefree_hotinstall.(*Node).EnableAdaptive",
		"read by racefree_hotinstall.(*Node).HandleCall",
	} {
		if !strings.Contains(msg, frag) {
			t.Errorf("finding lacks %q:\n%s", frag, msg)
		}
	}
}
