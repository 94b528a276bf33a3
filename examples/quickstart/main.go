// Quickstart: the paper's motivating example (Fig. 2) end to end, on the
// service-grade Analyzer API.
//
// Two versions of the Wheel Brake System fragment differ in one comparison
// operator (== vs <=). Full symbolic execution of the modified version
// yields 21 path conditions; DiSE, using the diff between the versions,
// yields only the 7 path conditions affected by the change (paper §2.2).
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"dise"
)

const baseVersion = `
int AltPress = 0;
int Meter = 2;

proc update(int PedalPos, int BSwitch, int PedalCmd) {
  if (PedalPos == 0) {
    PedalCmd = PedalCmd + 1;
  } else if (PedalPos == 1) {
    PedalCmd = PedalCmd + 2;
  } else {
    PedalCmd = PedalPos;
  }
  PedalCmd = PedalCmd + 1;
  if (BSwitch == 0) {
    Meter = 1;
  } else if (BSwitch == 1) {
    Meter = 2;
  }
  if (PedalCmd == 2) {
    AltPress = 0;
  } else if (PedalCmd == 3) {
    AltPress = 1;
  } else {
    AltPress = 2;
  }
}
`

func main() {
	// The change of Fig. 2: the first conditional's == becomes <=.
	modVersion := strings.Replace(baseVersion, "PedalPos == 0", "PedalPos <= 0", 1)

	// One Analyzer serves every request; its parse/CFG cache means the two
	// calls below parse each version only once.
	ctx := context.Background()
	analyzer := dise.NewAnalyzer()

	// Full (traditional) symbolic execution of the modified version.
	full, err := analyzer.Execute(ctx, modVersion, "update")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("full symbolic execution: %d path conditions, %d states\n",
		len(full.Paths), full.Stats.StatesExplored)

	// DiSE: diff both versions, compute affected locations, direct the
	// symbolic execution at the change.
	res, err := analyzer.Analyze(ctx, dise.Request{
		BaseSrc: baseVersion,
		ModSrc:  modVersion,
		Proc:    "update",
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("DiSE:                    %d path conditions, %d states\n",
		len(res.Paths), res.Stats.StatesExplored)
	fmt.Printf("affected conditionals at lines %v\n", res.AffectedConditionalLines)
	fmt.Printf("affected writes at lines       %v\n\n", res.AffectedWriteLines)

	fmt.Println("affected path conditions:")
	for i, pc := range res.PathConditions() {
		fmt.Printf("  PC%d: %s\n", i+1, pc)
	}

	// Render each affected path's witness as concrete test inputs.
	tests, err := res.Tests()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntest inputs exercising the affected behaviors:")
	for _, tc := range tests {
		fmt.Printf("  %s\n", tc.Call)
	}
}
