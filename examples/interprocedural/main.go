// Inter-procedural DiSE (the paper's §7 future work, realized via call
// inlining): a change inside a helper procedure affects conditionals in its
// caller through a global, and DiSE — run on the inlined system — finds the
// affected path conditions across the procedure boundary.
//
// Run with: go run ./examples/interprocedural
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"dise"
)

const baseSystem = `
int Pressure = 0;
int Relief = 0;
int Alarm = 0;
int Beacon = 0;

proc measure(int raw, int offset) {
  // Sensor conditioning: clamp negative readings.
  adjusted = raw + offset;
  if (adjusted < 0) {
    Pressure = 0;
  } else {
    Pressure = adjusted;
  }
}

proc protect(int limit) {
  if (Pressure > limit) {
    Relief = 1;
    Alarm = 1;
  } else {
    Relief = 0;
  }
}

proc telemetry(int channel) {
  // Unrelated housekeeping: not affected by sensor-conditioning changes.
  if (channel == 0) {
    Beacon = 1;
  } else if (channel == 1) {
    Beacon = 2;
  } else {
    Beacon = 0;
  }
}

proc cycle(int raw, int offset, int limit, int channel) {
  measure(raw, offset);
  telemetry(channel);
  protect(limit);
}
`

func main() {
	// The change is inside the helper: conditioning now doubles the
	// reading. Its effect flows through the Pressure global into the
	// protect() conditional two calls away.
	modSystem := strings.Replace(baseSystem, "Pressure = adjusted;", "Pressure = adjusted + adjusted;", 1)

	ctx := context.Background()
	analyzer := dise.NewAnalyzer()

	// Show the inlined form of the system (what the analysis operates on).
	flat, err := dise.InlineProgram(modSystem, "cycle")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("inlined system under analysis:")
	fmt.Println(flat)

	res, err := analyzer.Analyze(ctx, dise.Request{
		BaseSrc:         baseSystem,
		ModSrc:          modSystem,
		Proc:            "cycle",
		Interprocedural: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	full, err := analyzer.Execute(ctx, flat, "cycle")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("full symbolic execution: %d path conditions, %d states\n",
		len(full.Paths), full.Stats.StatesExplored)
	fmt.Printf("DiSE (inter-procedural): %d path conditions, %d states\n\n",
		len(res.Paths), res.Stats.StatesExplored)

	fmt.Println("affected path conditions (note the protect() conditional is affected")
	fmt.Println("by the change inside measure(), across the call boundary):")
	for i, pc := range res.PathConditions() {
		fmt.Printf("  PC%d: %s\n", i+1, pc)
	}
}
