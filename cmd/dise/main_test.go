package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The paper's motivating example (Fig. 2): the modified version turns the
// first conditional's == into <=.
const motivatingBase = `
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

// diseBin is the command under test, built once by TestMain.
var diseBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "dise-cmd")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	diseBin = filepath.Join(dir, "dise")
	if out, err := exec.Command("go", "build", "-o", diseBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// motivatingFiles writes both versions of the motivating example.
func motivatingFiles(t *testing.T) (base, mod string) {
	t.Helper()
	dir := t.TempDir()
	base, mod = filepath.Join(dir, "old.mini"), filepath.Join(dir, "new.mini")
	modSrc := strings.Replace(motivatingBase, "PedalPos == 0", "PedalPos <= 0", 1)
	if err := os.WriteFile(base, []byte(motivatingBase), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mod, []byte(modSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	return base, mod
}

// run executes the command and returns its output and exit code.
func run(t *testing.T, args ...string) (string, int) {
	t.Helper()
	out, err := exec.Command(diseBin, args...).CombinedOutput()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return string(out), exit.ExitCode()
	}
	if err != nil {
		t.Fatalf("dise %v: %v", args, err)
	}
	return string(out), 0
}

// TestModes runs every mode on the motivating example (the paper's Fig. 2
// and §2.2: 1 changed node, 7 affected paths against 21 full-SE paths) and
// on the WBS artifact.
func TestModes(t *testing.T) {
	base, mod := motivatingFiles(t)
	for _, tc := range []struct {
		args   []string
		want   []string
		prefix string
	}{
		{args: []string{"-base", base, "-mod", mod}, want: []string{"changed CFG nodes:    1\n", "affected path conditions: 7\n"}},
		{args: []string{"exec", "-src", mod}, want: []string{"path conditions: 21\n"}},
		{args: []string{"exec", "-src", mod, "-tree"}, want: []string{"PC: true"}},
		{args: []string{"cfg", "-src", mod}, prefix: "digraph cfg {"},
		{args: []string{"cfg", "-src", mod, "-base", base}, prefix: "digraph cfg {", want: []string{"lightcoral"}},
		{args: []string{"tables", "-artifact", "wbs"}, want: []string{"Table 2 — WBS"}},
	} {
		out, code := run(t, tc.args...)
		if code != 0 {
			t.Errorf("dise %v: exit %d\n%s", tc.args, code, out)
			continue
		}
		if !strings.HasPrefix(out, tc.prefix) {
			t.Errorf("dise %v: output does not start with %q:\n%s", tc.args, tc.prefix, out)
		}
		for _, want := range tc.want {
			if !strings.Contains(out, want) {
				t.Errorf("dise %v: output lacks %q:\n%s", tc.args, want, out)
			}
		}
	}
}

func TestJSONSolverStats(t *testing.T) {
	base, mod := motivatingFiles(t)
	out, code := run(t, "-base", base, "-mod", mod, "-json")
	var res struct {
		Stats struct {
			SolverStats map[string]any `json:"solver_stats"`
		} `json:"stats"`
	}
	if err := json.Unmarshal([]byte(out), &res); code != 0 || err != nil {
		t.Fatalf("exit %d, %v:\n%s", code, err, out)
	}
	for _, key := range []string{"checks", "asserts", "search_nodes", "propagations", "box_snapshots"} {
		if _, ok := res.Stats.SolverStats[key]; !ok {
			t.Errorf("stats.solver_stats lacks %q: %v", key, res.Stats.SolverStats)
		}
	}
}

func TestSubcommandRejectsUnknownFlag(t *testing.T) {
	for _, sub := range []string{"exec", "cfg", "tables"} {
		if out, code := run(t, sub, "-no-such-flag"); code != 2 {
			t.Errorf("dise %s -no-such-flag: exit %d, want 2\n%s", sub, code, out)
		}
	}
}
