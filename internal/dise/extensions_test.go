package dise

import (
	"testing"

	"dise/internal/symexec"
)

// TestTransitiveWritesExtension exercises the write→write dataflow rule that
// extends the published Eq. (1)–(4): a change to "x = ..." flows through
// "y = x" into a conditional on y.
func TestTransitiveWritesExtension(t *testing.T) {
	base := `
proc p(int a) {
  x = a;
  y = x;
  if (y > 10) {
    out = 1;
  } else {
    out = 2;
  }
}`
	mod := `
proc p(int a) {
  x = a + 5;
  y = x;
  if (y > 10) {
    out = 1;
  } else {
    out = 2;
  }
}`
	// Published rules: the chain is invisible — the conditional on y is NOT
	// affected (x's new value reaches it only through the y write).
	paperFaithful, err := AnalyzeOpts(mustParse(t, base), mustParse(t, mod), "p", symexec.Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if paperFaithful.Affected.ACN.Count() != 0 {
		t.Errorf("published rules must not reach the conditional through a write chain, got ACN lines %v",
			paperFaithful.Affected.ACNLines())
	}
	// The changed write is covered by a single path.
	if len(paperFaithful.Summary.Paths) != 1 {
		t.Errorf("paper-faithful paths = %d, want 1", len(paperFaithful.Summary.Paths))
	}

	// Extension: the chain propagates; both arms of the conditional become
	// affected behaviors.
	extended, err := AnalyzeOpts(mustParse(t, base), mustParse(t, mod), "p", symexec.Config{}, Options{TransitiveWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := extended.Affected.ACN.Count(), 1; got != want {
		t.Fatalf("extension ACN size = %d, want %d (lines %v)", got, want, extended.Affected.ACNLines())
	}
	if len(extended.Summary.Paths) != 2 {
		t.Errorf("extension paths = %d, want 2 (both arms of the tainted conditional)", len(extended.Summary.Paths))
	}
	// The y write must be in AWN under the extension.
	found := false
	for _, line := range extended.Affected.AWNLines() {
		if line == 4 { // "y = x;"
			found = true
		}
	}
	if !found {
		t.Errorf("extension AWN lines = %v, want to include line 4 (y = x)", extended.Affected.AWNLines())
	}
}

// TestTransitiveWritesLongChain checks the rule iterates to a fixpoint
// through multi-hop chains.
func TestTransitiveWritesLongChain(t *testing.T) {
	base := `
proc p(int a) {
  v1 = a;
  v2 = v1 + 1;
  v3 = v2 + 1;
  v4 = v3 + 1;
  if (v4 > 100) {
    out = 1;
  } else {
    out = 0;
  }
}`
	mod := `
proc p(int a) {
  v1 = a * 2;
  v2 = v1 + 1;
  v3 = v2 + 1;
  v4 = v3 + 1;
  if (v4 > 100) {
    out = 1;
  } else {
    out = 0;
  }
}`
	extended, err := AnalyzeOpts(mustParse(t, base), mustParse(t, mod), "p", symexec.Config{}, Options{TransitiveWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	// All four chain writes affected, conditional affected, both arms explored.
	if got := extended.Affected.AWN.Count(); got < 4 {
		t.Errorf("AWN size = %d, want >= 4 (full chain)", got)
	}
	if extended.Affected.ACN.Count() != 1 {
		t.Errorf("ACN size = %d, want 1", extended.Affected.ACN.Count())
	}
	if len(extended.Summary.Paths) != 2 {
		t.Errorf("paths = %d, want 2", len(extended.Summary.Paths))
	}
}

// TestTransitiveWritesDoesNotOverreach: writes unrelated to the change stay
// unaffected even with the extension on.
func TestTransitiveWritesDoesNotOverreach(t *testing.T) {
	base := `
proc p(int a, int b) {
  x = a;
  y = x;
  other = b;
  if (other > 0) {
    lamp = 1;
  } else {
    lamp = 0;
  }
}`
	mod := `
proc p(int a, int b) {
  x = a + 1;
  y = x;
  other = b;
  if (other > 0) {
    lamp = 1;
  } else {
    lamp = 0;
  }
}`
	extended, err := AnalyzeOpts(mustParse(t, base), mustParse(t, mod), "p", symexec.Config{}, Options{TransitiveWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	if extended.Affected.ACN.Count() != 0 {
		t.Errorf("unrelated conditional must stay unaffected, ACN lines %v", extended.Affected.ACNLines())
	}
	for _, line := range extended.Affected.AWNLines() {
		if line == 5 { // "other = b;"
			t.Error("write to an unrelated variable must not be affected")
		}
	}
}
