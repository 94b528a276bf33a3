// Package evaluation regenerates the tables of the DiSE paper's evaluation
// (§4.2): for every mutant version of every artifact it runs full symbolic
// execution and DiSE, collects the paper's dependent variables — time,
// states explored, path conditions generated (Table 2) — and performs test
// case selection and augmentation against the base version's suite
// (Table 3).
package evaluation

import (
	"fmt"
	"strings"
	"time"

	"dise/internal/artifacts"
	"dise/internal/dise"
	"dise/internal/symexec"
	"dise/internal/testgen"
)

// Row2 is one row of Table 2: the cost and effectiveness comparison between
// DiSE and full symbolic execution for one mutant version.
type Row2 struct {
	Version  string
	Changed  int // CFG nodes directly changed/added/removed
	Affected int // total affected nodes (|ACN| + |AWN|)

	DiSETime   time.Duration
	FullTime   time.Duration
	DiSEStates int
	FullStates int
	DiSEPCs    int
	FullPCs    int
}

// Row3 is one row of Table 3: regression test selection and augmentation.
type Row3 struct {
	Version    string
	NumChanges int // changed source statements
	Selected   int
	Added      int
}

// Total is Selected + Added.
func (r Row3) Total() int { return r.Selected + r.Added }

// ArtifactResult bundles both tables for one artifact.
type ArtifactResult struct {
	Artifact      artifacts.Artifact
	Rows2         []Row2
	Rows3         []Row3
	BaseSuiteSize int // tests generated by full SE on the base version
}

// Run evaluates every version of the artifact. The config applies to both
// techniques (the paper uses no depth bound for the loop-free artifacts;
// the zero Config mirrors that with a high default bound).
func Run(a artifacts.Artifact, config symexec.Config) (*ArtifactResult, error) {
	out := &ArtifactResult{Artifact: a}

	// Existing test suite: full symbolic execution of the base version
	// (§5.2: "Tests generated for the original version of the method
	// represent an existing test suite").
	baseProg := a.BaseProgram()
	baseEngine, err := symexec.New(baseProg, a.Proc, config)
	if err != nil {
		return nil, fmt.Errorf("evaluation: %s base: %w", a.Name, err)
	}
	baseSummary := baseEngine.RunFull()
	baseSuite := testgen.NewGenerator(baseEngine).Generate(baseSummary)
	out.BaseSuiteSize = len(baseSuite)

	for _, v := range a.Versions {
		modProg := a.ProgramFor(v)

		// Control: full symbolic execution of the modified version.
		fullEngine, err := symexec.New(modProg, a.Proc, config)
		if err != nil {
			return nil, fmt.Errorf("evaluation: %s %s: %w", a.Name, v.Name, err)
		}
		fullSummary := fullEngine.RunFull()

		// Treatment: DiSE. Re-parse the base program so AST identity never
		// leaks between runs.
		res, err := dise.Analyze(a.BaseProgram(), modProg, a.Proc, config)
		if err != nil {
			return nil, fmt.Errorf("evaluation: %s %s: %w", a.Name, v.Name, err)
		}

		out.Rows2 = append(out.Rows2, Row2{
			Version:    v.Name,
			Changed:    res.Affected.ChangedNodes,
			Affected:   res.Affected.Size(),
			DiSETime:   res.Summary.Stats.Time,
			FullTime:   fullSummary.Stats.Time,
			DiSEStates: res.Summary.Stats.StatesExplored,
			FullStates: fullSummary.Stats.StatesExplored,
			DiSEPCs:    len(res.Summary.Paths),
			FullPCs:    len(fullSummary.Paths),
		})

		// Table 3: render DiSE's path witnesses into tests and split them
		// against the base suite by string comparison.
		diseTests := testgen.NewGenerator(fullEngine).Generate(res.Summary)
		sel := testgen.SelectAugment(baseSuite, diseTests)
		out.Rows3 = append(out.Rows3, Row3{
			Version:    v.Name,
			NumChanges: v.NumChanges,
			Selected:   len(sel.Selected),
			Added:      len(sel.Added),
		})
	}
	return out, nil
}

// Table2 renders the artifact's Table 2 in the paper's layout.
func (r *ArtifactResult) Table2() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2 — %s: DiSE and Symbolic Execution Results\n", r.Artifact.Name)
	fmt.Fprintf(&b, "%-8s %8s %9s | %12s %12s | %12s %12s | %10s %10s\n",
		"Version", "Changed", "Affected",
		"DiSE Time", "Full Time",
		"DiSE States", "Full States",
		"DiSE PCs", "Full PCs")
	b.WriteString(strings.Repeat("-", 108))
	b.WriteString("\n")
	for _, row := range r.Rows2 {
		fmt.Fprintf(&b, "%-8s %8d %9d | %12s %12s | %12d %12d | %10d %10d\n",
			row.Version, row.Changed, row.Affected,
			fmtDuration(row.DiSETime), fmtDuration(row.FullTime),
			row.DiSEStates, row.FullStates,
			row.DiSEPCs, row.FullPCs)
	}
	return b.String()
}

// Table3 renders the artifact's Table 3 in the paper's layout (transposed to
// rows for readability).
func (r *ArtifactResult) Table3() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3 — %s: Regression Testing Results (base suite: %d tests)\n",
		r.Artifact.Name, r.BaseSuiteSize)
	fmt.Fprintf(&b, "%-8s %10s %10s %8s %12s\n", "Version", "# Changes", "Selected", "Added", "Total Tests")
	b.WriteString(strings.Repeat("-", 52))
	b.WriteString("\n")
	for _, row := range r.Rows3 {
		fmt.Fprintf(&b, "%-8s %10d %10d %8d %12d\n",
			row.Version, row.NumChanges, row.Selected, row.Added, row.Total())
	}
	return b.String()
}

// fmtDuration renders durations with millisecond precision, padded.
func fmtDuration(d time.Duration) string {
	return d.Round(time.Millisecond).String()
}

// CheckShape validates the qualitative claims of the paper's evaluation on
// a result (used by tests and the experiment harness):
//
//  1. DiSE never generates more path conditions than full symbolic
//     execution;
//  2. DiSE never explores more states than full symbolic execution;
//  3. when DiSE's path conditions are a strict subset, it explores strictly
//     fewer states.
//
// It returns a list of violations (empty when the shape holds).
func (r *ArtifactResult) CheckShape() []string {
	var issues []string
	for _, row := range r.Rows2 {
		if row.DiSEPCs > row.FullPCs {
			issues = append(issues, fmt.Sprintf("%s %s: DiSE PCs %d > full %d",
				r.Artifact.Name, row.Version, row.DiSEPCs, row.FullPCs))
		}
		if row.DiSEStates > row.FullStates {
			issues = append(issues, fmt.Sprintf("%s %s: DiSE states %d > full %d",
				r.Artifact.Name, row.Version, row.DiSEStates, row.FullStates))
		}
		if row.DiSEPCs < row.FullPCs && row.DiSEStates >= row.FullStates {
			issues = append(issues, fmt.Sprintf("%s %s: subset PCs (%d < %d) but no state reduction (%d >= %d)",
				r.Artifact.Name, row.Version, row.DiSEPCs, row.FullPCs, row.DiSEStates, row.FullStates))
		}
	}
	return issues
}
