// Package artifacts re-creates the three evaluation artifacts of the DiSE
// paper (§4.2): ASW (altitude switch), WBS (wheel brake system) and OAE
// (onboard abort executive), each as a base program plus a catalog of mutant
// versions. The originals are Java classes from the SIR repository; these
// re-creations preserve the *shape* of the paper's experiment — loop-free
// reactive procedures whose feasible-path counts are products of independent
// decision blocks, with mutants ranging from masked (formatting-only) and
// dead-region changes to root-conditional changes that taint every path.
//
// Versions are stored as textual edits against the base source, mirroring
// how the paper's mutants were produced (small operator/operand changes,
// added and deleted statements).
package artifacts

import (
	"fmt"
	"strings"

	"dise/internal/lang/ast"
	"dise/internal/lang/parser"
)

// Edit is one textual mutation applied to the base source.
type Edit struct {
	Old string // unique substring of the base source
	New string
}

// Version is one mutant of an artifact.
type Version struct {
	Name string
	// NumChanges counts changed source statements (the "# Changes" column of
	// the paper's Table 3).
	NumChanges int
	// Note summarizes the intent of the mutation.
	Note string
	// Edits are applied to the base source in order.
	Edits []Edit
}

// Artifact is one evaluation subject: a base program and its mutants.
type Artifact struct {
	Name string
	// Proc is the procedure under analysis.
	Proc string
	// Base is the source text of the original version.
	Base     string
	Versions []Version
}

// Find returns the version with the given name.
func (a Artifact) Find(name string) (Version, bool) {
	for _, v := range a.Versions {
		if v.Name == name {
			return v, true
		}
	}
	return Version{}, false
}

// SourceFor applies the version's edits to the base source.
func (a Artifact) SourceFor(v Version) string {
	src := a.Base
	for _, e := range v.Edits {
		if !strings.Contains(src, e.Old) {
			panic(fmt.Sprintf("artifacts: %s %s: edit target %q not found", a.Name, v.Name, e.Old))
		}
		src = strings.Replace(src, e.Old, e.New, 1)
	}
	return src
}

// BaseProgram parses the base source. A fresh AST is returned on every call
// so AST identity never leaks between analysis runs.
func (a Artifact) BaseProgram() *ast.Program { return parser.MustParse(a.Base) }

// ProgramFor parses the version's source (fresh AST per call).
func (a Artifact) ProgramFor(v Version) *ast.Program { return parser.MustParse(a.SourceFor(v)) }

// All returns the artifact catalog in the paper's order.
func All() []Artifact { return []Artifact{asw, wbs, oae} }

// ByName looks an artifact up by its table name ("ASW", "WBS" or "OAE"),
// in any letter case.
func ByName(name string) (Artifact, bool) {
	for _, a := range All() {
		if strings.EqualFold(a.Name, name) {
			return a, true
		}
	}
	return Artifact{}, false
}
