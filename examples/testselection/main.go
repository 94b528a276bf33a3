// Test selection and augmentation (paper §5.2): maintain a regression suite
// across a program change.
//
// The existing suite comes from full symbolic execution of the original
// version. After the change, DiSE computes the affected path conditions;
// solving them yields the tests that matter for the change. String
// comparison against the existing suite splits them into re-usable
// (selected) and new (added) tests — the paper's Table 3 workflow.
//
// Run with: go run ./examples/testselection
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"dise"
)

const baseVersion = `
int LowWater = 10;
int HighWater = 90;
int Alarm = 0;
int Pump = 0;

proc control(int Level, int Rate, bool Manual) {
  if (Level < LowWater) {
    Pump = 1;
  } else if (Level > HighWater) {
    Pump = 0;
  } else {
    Pump = Pump;
  }
  if (Rate > 5) {
    Alarm = 1;
  } else {
    Alarm = 0;
  }
  if (Manual) {
    Pump = 0;
  }
}
`

func main() {
	// The change: the rate alarm threshold tightens from 5 to 3.
	modVersion := strings.Replace(baseVersion, "Rate > 5", "Rate > 3", 1)

	ctx := context.Background()
	analyzer := dise.NewAnalyzer()

	// 1. Existing suite: full symbolic execution of the original version.
	baseSum, err := analyzer.Execute(ctx, baseVersion, "control")
	if err != nil {
		log.Fatal(err)
	}
	baseSuite := baseSum.Tests()
	fmt.Printf("existing suite (%d tests):\n", len(baseSuite))
	for _, tc := range baseSuite {
		fmt.Printf("  %s\n", tc.Call)
	}

	// 2. DiSE on the change. The base version was parsed by the Execute
	// above; the Analyzer's cache reuses it here.
	res, err := analyzer.Analyze(ctx, dise.Request{
		BaseSrc: baseVersion,
		ModSrc:  modVersion,
		Proc:    "control",
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nDiSE: %d affected path conditions (full run has %d paths)\n",
		len(res.Paths), len(baseSum.Paths))

	// 3. Render the affected paths' witnesses as tests; select + augment.
	diseTests, err := res.Tests()
	if err != nil {
		log.Fatal(err)
	}
	sel := dise.SelectAugment(baseSuite, diseTests)
	fmt.Printf("\nselected (re-usable) tests: %d\n", len(sel.Selected))
	for _, tc := range sel.Selected {
		fmt.Printf("  %s\n", tc.Call)
	}
	fmt.Printf("added (new) tests: %d\n", len(sel.Added))
	for _, tc := range sel.Added {
		fmt.Printf("  %s    <- exercises %s\n", tc.Call, tc.PathCondition)
	}
	fmt.Printf("\nregression run: %d of %d tests instead of re-test-all\n",
		len(sel.Selected)+len(sel.Added), len(baseSuite))
}
