package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// goldenFixtures maps every package under testdata/src to the synthetic
// import path its rule test loads it under (internal/ paths put the
// internal-scoped rules in scope).
var goldenFixtures = map[string]string{
	"alloc":               "adhocshare/internal/fixture/alloc",
	"clean":               "adhocshare/internal/fixture/clean",
	"codec":               "adhocshare/internal/fixture/codec",
	"determinism":         "adhocshare/internal/fixture/determinism",
	"discarderr":          "adhocshare/fixture/discarderr",
	"faultpath":           "adhocshare/internal/fixture/faultpath",
	"goroutines":          "adhocshare/fixture/goroutines",
	"guarded":             "adhocshare/fixture/guarded",
	"locked":              "adhocshare/fixture/locked",
	"lockorder":           "adhocshare/fixture/lockorder",
	"payloadsize":         "adhocshare/fixture/payloadsize",
	"racefree":            "adhocshare/fixture/racefree",
	"racefree_hotinstall": "adhocshare/fixture/racefree_hotinstall",
	"rpcproto":            "adhocshare/fixture/rpcproto",
	"vtime":               "adhocshare/internal/fixture/vtime",
	"wireiso":             "adhocshare/fixture/wireiso",
}

// TestFixtureDiagnosticsGolden pins the full text of every diagnostic the
// fixtures produce with all rules enabled — per-package and whole-program,
// as the CLI runs them. The `// want` comments match message fragments
// only; this golden also catches a changed witness chain or message tail.
// Regenerate with UPDATE_GOLDEN=1 after reviewing the diff.
func TestFixtureDiagnosticsGolden(t *testing.T) {
	t.Parallel()
	entries, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if _, ok := goldenFixtures[e.Name()]; !ok {
			t.Fatalf("fixture %s has no import path in goldenFixtures", e.Name())
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)

	sections := make([][]byte, len(names))
	t.Run("fixtures", func(t *testing.T) {
		for i, name := range names {
			i, name := i, name
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				prog := loadFixtureProgram(t, name, goldenFixtures[name])
				diags := append(LintPackage(prog.Pkgs[0], nil), LintProgram(prog, nil)...)
				sortDiagnostics(diags)
				var buf bytes.Buffer
				fmt.Fprintf(&buf, "== %s (%s)\n", name, goldenFixtures[name])
				for _, d := range diags {
					fmt.Fprintf(&buf, "%s:%d: [%s] %s\n", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Rule, d.Msg)
				}
				sections[i] = buf.Bytes()
			})
		}
	})
	got := bytes.Join(sections, nil)

	path := filepath.Join("testdata", "diagnostics.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with UPDATE_GOLDEN=1 to create): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("fixture diagnostics differ from %s; run with UPDATE_GOLDEN=1 after reviewing the diff.\ngot:\n%s", path, got)
	}
}
