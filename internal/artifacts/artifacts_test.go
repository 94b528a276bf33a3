package artifacts

import (
	"strings"
	"testing"

	"dise/internal/diff"
	"dise/internal/lang/parser"
	"dise/internal/lang/types"
)

// TestCatalogWellFormed checks every artifact source parses, type-checks and
// contains the procedure under analysis, and that every version's edits hit
// a statement inside the procedure body (not, say, a global initializer —
// the classic silent-edit failure mode of textual mutation).
func TestCatalogWellFormed(t *testing.T) {
	for _, a := range All() {
		base, err := parser.Parse(a.Base)
		if err != nil {
			t.Fatalf("%s: base does not parse: %v", a.Name, err)
		}
		if _, err := types.Check(base); err != nil {
			t.Fatalf("%s: base does not type-check: %v", a.Name, err)
		}
		baseProc := base.Proc(a.Proc)
		if baseProc == nil {
			t.Fatalf("%s: procedure %q not found", a.Name, a.Proc)
		}
		seen := map[string]bool{}
		for _, v := range a.Versions {
			if seen[v.Name] {
				t.Errorf("%s: duplicate version %s", a.Name, v.Name)
			}
			seen[v.Name] = true
			mod, err := parser.Parse(a.SourceFor(v))
			if err != nil {
				t.Errorf("%s %s: does not parse: %v", a.Name, v.Name, err)
				continue
			}
			if _, err := types.Check(mod); err != nil {
				t.Errorf("%s %s: does not type-check: %v", a.Name, v.Name, err)
				continue
			}
			d := diff.Procedures(baseProc, mod.Proc(a.Proc))
			if v.NumChanges == 0 {
				if !d.Identical() {
					t.Errorf("%s %s: NumChanges=0 but the diff sees changes", a.Name, v.Name)
				}
			} else if d.Identical() {
				t.Errorf("%s %s: edits did not change the procedure body", a.Name, v.Name)
			}
		}
	}
}

// TestByName covers the lookup helpers.
func TestByName(t *testing.T) {
	for _, name := range []string{"ASW", "WBS", "OAE"} {
		a, ok := ByName(name)
		if !ok || a.Name != name {
			t.Errorf("ByName(%q) = %v, %v", name, a.Name, ok)
		}
		if _, ok := a.Find(a.Versions[0].Name); !ok {
			t.Errorf("%s: Find(%s) failed", name, a.Versions[0].Name)
		}
		if _, ok := a.Find("ghost"); ok {
			t.Errorf("%s: Find(ghost) should fail", name)
		}
	}
	for _, name := range []string{"wbs", "Oae", "asW"} {
		if a, ok := ByName(name); !ok || !strings.EqualFold(a.Name, name) {
			t.Errorf("ByName(%q) = %v, %v; want a case-insensitive match", name, a.Name, ok)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName(nope) should fail")
	}
}
