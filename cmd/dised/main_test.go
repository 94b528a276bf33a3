package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"dise/internal/artifacts"
	"dise/internal/service"
)

// disedBin is the daemon under test, built once by TestMain; empty when no
// go toolchain is on PATH.
var disedBin string

func TestMain(m *testing.M) {
	if _, err := exec.LookPath("go"); err != nil {
		os.Exit(m.Run()) // the daemon tests skip themselves
	}
	dir, err := os.MkdirTemp("", "dised-cmd")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	disedBin = filepath.Join(dir, "dised")
	if out, err := exec.Command("go", "build", "-o", disedBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// buildDised returns the daemon TestMain built, skipping the test when
// there is none.
func buildDised(t *testing.T) string {
	t.Helper()
	if disedBin == "" {
		t.Skip("go toolchain not on PATH")
	}
	return disedBin
}

// startDised boots the daemon on a random port and waits for the port file.
// env entries (KEY=VALUE) override the test's own environment.
func startDised(t *testing.T, bin string, env []string, extraArgs ...string) (*exec.Cmd, *bytes.Buffer, string) {
	t.Helper()
	portFile := filepath.Join(t.TempDir(), "port")
	args := append([]string{"-addr", "127.0.0.1:0", "-port-file", portFile}, extraArgs...)
	cmd := exec.Command(bin, args...)
	if env != nil {
		cmd.Env = append(os.Environ(), env...)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting dised: %v", err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	deadline := time.Now().Add(10 * time.Second)
	for {
		if addr, err := os.ReadFile(portFile); err == nil && len(addr) > 0 {
			return cmd, &stderr, strings.TrimSpace(string(addr))
		}
		if time.Now().After(deadline) {
			t.Fatalf("dised never wrote its port file; stderr:\n%s", stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func postJSON(t *testing.T, url string, body, out any) (int, string) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		var ep service.ErrorPayload
		json.NewDecoder(resp.Body).Decode(&ep)
		return resp.StatusCode, ep.Error.Code
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decoding reply: %v", url, err)
		}
	}
	return resp.StatusCode, ""
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decoding reply: %v", url, err)
	}
}

// stopDised delivers SIGTERM and requires the daemon to drain and exit 0.
func stopDised(t *testing.T, cmd *exec.Cmd, stderr *bytes.Buffer) {
	t.Helper()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("dised exited non-zero: %v; stderr:\n%s", err, stderr.String())
		}
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		<-done
		t.Fatalf("dised never exited after SIGTERM; stderr:\n%s", stderr.String())
	}
}

// TestDaemonSmoke runs the smoke sequence against the real daemon in three
// configurations: the defaults, the smtlib backend with no SMT binary on
// PATH, and the four memory-bound flags. Each case checks /healthz, seeds a
// WBS session, advances it twice, reads /metrics and stops the daemon with
// SIGTERM. It asserts that memoized reuse crossed the HTTP boundary, that
// the store and the cumulative counters saw the session, and that each
// memory bound takes effect exactly when its flag is set.
//
// The WBS trie holds 226 nodes after the first advance and 281 after the
// second, and each WBS version's parse-cache entry is estimated at 14,032
// bytes (621 source bytes × 16 + 4,096). So a 128-node trie budget must
// evict, and a 32 KiB cache budget (16 KiB for the parse cache) holds one
// version at a time: each advance evicts its predecessor.
func TestDaemonSmoke(t *testing.T) {
	bin := buildDised(t)
	for _, tc := range []struct {
		name string
		args []string
		env  []string
		// solverless expects the smtlib backend to find no binary and
		// count every external check as ext_unknowns.
		solverless bool
		// trieBudget > 0 expects every advance to report at most that many
		// trie nodes and some advance to evict; 0 expects no eviction.
		trieBudget int
		// parseEvictions is the least parse_cache.evictions to expect; 0
		// expects none.
		parseEvictions int64
		internEpoch    uint64
		maxTrieBytes   int64
	}{
		{name: "defaults"},
		{
			name:       "solverless",
			args:       []string{"-solver", "smtlib"},
			env:        []string{"PATH=" + t.TempDir()},
			solverless: true,
		},
		{
			name: "memory-bounds",
			args: []string{"-max-trie-nodes", "128", "-max-trie-bytes", "1048576",
				"-intern-gc-epochs", "1", "-cache-bytes", "32768"},
			trieBudget:     128,
			parseEvictions: 2,
			internEpoch:    3, // the seed and two advances, one epoch per completed run
			maxTrieBytes:   1 << 20,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd, stderr, addr := startDised(t, bin, tc.env, tc.args...)
			base := "http://" + addr

			var health service.HealthResponse
			getJSON(t, base+"/healthz", &health)
			if health.Status != "ok" {
				t.Fatalf("healthz status %q", health.Status)
			}

			art, _ := artifacts.ByName("WBS")
			var created service.CreateSessionResponse
			if status, code := postJSON(t, base+"/v1/sessions",
				service.CreateSessionRequest{Tenant: "smoke", InitialSrc: art.Base, Proc: art.Proc}, &created); status != http.StatusCreated {
				t.Fatalf("create session: status %d code %q; stderr:\n%s", status, code, stderr.String())
			}
			// Two advances: the first WBS mutant taints every path and
			// replays nothing, so memoized reuse shows from the second.
			var steps [2]service.ResultPayload
			for i := range steps {
				if status, code := postJSON(t, base+"/v1/sessions/"+created.SessionID+"/advance",
					service.AdvanceRequest{Tenant: "smoke", NextSrc: art.SourceFor(art.Versions[i])}, &steps[i]); status != http.StatusOK {
					t.Fatalf("advance %d: status %d code %q", i+1, status, code)
				}
			}
			if m := steps[1].Stats.Memo; !m.Enabled || m.MemoHits == 0 {
				t.Errorf("no memo hits on the second advance: %+v", m)
			}

			var m service.Metrics
			getJSON(t, base+"/metrics", &m)
			if m.Sessions.Occupancy < 1 {
				t.Errorf("metrics report no stored session: %+v", m.Sessions)
			}
			if m.MemoStats.MemoHits == 0 {
				t.Errorf("cumulative memo_stats show no hits: %+v", m.MemoStats)
			}
			if m.SolverStats.Checks == 0 {
				t.Errorf("cumulative solver_stats show no checks: %+v", m.SolverStats)
			}
			if n := m.Latency.Advance.Count; n != 2 {
				t.Errorf("advance latency count = %d, want 2", n)
			}
			// The breakdown must attribute the resident trie and the
			// hash-consed expressions backing it.
			if mb := m.MemoryBreakdown; mb.TrieNodes == 0 || mb.InternEntries == 0 {
				t.Errorf("memory_breakdown not populated: %+v", mb)
			}

			t.Logf("memo hits %d and %d, trie nodes %d and %d, evicted %d and %d; parse evictions %d, intern epoch %d, ext_unknowns %d",
				steps[0].Stats.Memo.MemoHits, steps[1].Stats.Memo.MemoHits,
				steps[0].Stats.Memo.TrieNodes, steps[1].Stats.Memo.TrieNodes,
				steps[0].Stats.Memo.NodesEvicted, steps[1].Stats.Memo.NodesEvicted,
				m.ParseCache.Evictions, m.MemoryBreakdown.InternEpoch, m.SolverStats.ExtUnknowns)
			if got := m.SolverStats.ExtUnknowns > 0; got != tc.solverless {
				t.Errorf("ext_unknowns = %d with solverless %v, want > 0 exactly when solver-less", m.SolverStats.ExtUnknowns, tc.solverless)
			}
			evicted := 0
			for i, r := range steps {
				if tc.trieBudget > 0 && r.Stats.Memo.TrieNodes > tc.trieBudget {
					t.Errorf("advance %d: trie_nodes = %d over the budget of %d", i+1, r.Stats.Memo.TrieNodes, tc.trieBudget)
				}
				evicted += r.Stats.Memo.NodesEvicted
			}
			if (evicted > 0) != (tc.trieBudget > 0) {
				t.Errorf("advances evicted %d trie nodes under a budget of %d", evicted, tc.trieBudget)
			}
			if got := m.ParseCache.Evictions; got < tc.parseEvictions || (tc.parseEvictions == 0 && got != 0) {
				t.Errorf("parse_cache.evictions = %d, want at least %d (0: none)", got, tc.parseEvictions)
			}
			if got := m.MemoryBreakdown.InternEpoch; got != tc.internEpoch {
				t.Errorf("memory_breakdown.intern_epoch = %d, want %d", got, tc.internEpoch)
			}
			if got := m.Sessions.MaxTrieBytes; got != tc.maxTrieBytes {
				t.Errorf("sessions.max_trie_bytes = %d, want %d", got, tc.maxTrieBytes)
			}

			stopDised(t, cmd, stderr)
		})
	}
}

// TestGracefulShutdownSIGTERM boots the real daemon, parks an advance
// request mid-flight (the body is only half sent, so the handler is inside
// the drain gate blocked on the read), delivers SIGTERM, and asserts the
// full drain contract: new requests get 503 shutting_down, the in-flight
// advance completes with 200 once its body arrives, and the process exits 0.
func TestGracefulShutdownSIGTERM(t *testing.T) {
	bin := buildDised(t)
	cmd, stderr, addr := startDised(t, bin, nil, "-drain-timeout", "30s")
	base := "http://" + addr

	art, ok := artifacts.ByName("WBS")
	if !ok {
		t.Fatal("WBS artifact missing")
	}
	var created service.CreateSessionResponse
	if status, code := postJSON(t, base+"/v1/sessions",
		service.CreateSessionRequest{Tenant: "t1", InitialSrc: art.Base, Proc: art.Proc}, &created); status != http.StatusCreated {
		t.Fatalf("create session: status %d code %q", status, code)
	}

	// Hand-rolled advance request, sent in two halves: once the headers are
	// in, the handler has entered the drain gate and is parked reading the
	// body — a request that is in flight by construction when the signal
	// lands.
	body, err := json.Marshal(service.AdvanceRequest{Tenant: "t1", NextSrc: art.SourceFor(art.Versions[0])})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := fmt.Sprintf("POST /v1/sessions/%s/advance HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
		created.SessionID, addr, len(body))
	half := len(body) / 2
	if _, err := conn.Write(append([]byte(req), body[:half]...)); err != nil {
		t.Fatal(err)
	}
	// Give the server a beat to parse the headers and enter the handler.
	time.Sleep(200 * time.Millisecond)

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	// The drain gate is now closed to new work: the daemon cannot exit while
	// our request is open, and fresh requests are refused with 503.
	rejected := false
	for i := 0; i < 50 && !rejected; i++ {
		status, code := postJSON(t, base+"/v1/sessions",
			service.CreateSessionRequest{Tenant: "t2", InitialSrc: art.Base, Proc: art.Proc}, nil)
		if status == http.StatusServiceUnavailable && code == "shutting_down" {
			rejected = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !rejected {
		t.Fatalf("new requests were never rejected with 503 shutting_down; stderr:\n%s", stderr.String())
	}

	// Completing the body lets the in-flight advance finish normally.
	if _, err := conn.Write(body[half:]); err != nil {
		t.Fatalf("sending body remainder: %v", err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("reading in-flight response: %v", err)
	}
	var res service.ResultPayload
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatalf("decoding in-flight response: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(res.Paths) == 0 {
		t.Fatalf("in-flight advance: status %d, %d paths — drain killed a running request", resp.StatusCode, len(res.Paths))
	}

	// With the last request gone the daemon drains out and exits 0.
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("dised exited non-zero: %v; stderr:\n%s", err, stderr.String())
		}
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("dised never exited after the drain; stderr:\n%s", stderr.String())
	}
	if out := stderr.String(); !strings.Contains(out, "drained, exiting") {
		t.Fatalf("shutdown log missing the drain marker:\n%s", out)
	}
}

// TestUnknownSolverFailsStartup pins the up-front checks of -solver and
// -merge-bound: a name no backend is registered under, or a merge bound of
// 1, must stop the daemon before it listens, with exit 2 and an
// InvalidConfig message — not start a daemon whose analyses then fail.
func TestUnknownSolverFailsStartup(t *testing.T) {
	bin := buildDised(t)
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"-solver", "portfolio"}, []string{strconv.Quote("portfolio"), "[interval interval-noreuse bitvec smtlib]"}},
		{[]string{"-merge-bound", "1"}, []string{"-merge-bound", "merge bound 1 out of range"}},
	} {
		t.Run(tc.args[0], func(t *testing.T) {
			portFile := filepath.Join(t.TempDir(), "port")
			cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-port-file", portFile}, tc.args...)...)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			if err := cmd.Start(); err != nil {
				t.Fatalf("starting dised: %v", err)
			}
			done := make(chan error, 1)
			go func() { done <- cmd.Wait() }()
			select {
			case err := <-done:
				var exit *exec.ExitError
				if !errors.As(err, &exit) || exit.ExitCode() != 2 {
					t.Fatalf("dised %v: %v, want exit status 2; stderr:\n%s", tc.args, err, stderr.String())
				}
			case <-time.After(10 * time.Second):
				cmd.Process.Kill()
				<-done
				t.Fatalf("dised kept running with %v; stderr:\n%s", tc.args, stderr.String())
			}
			if _, err := os.Stat(portFile); !os.IsNotExist(err) {
				t.Fatalf("dised wrote its port file before rejecting %v (stat: %v)", tc.args, err)
			}
			for _, want := range append([]string{"invalid configuration"}, tc.want...) {
				if !strings.Contains(stderr.String(), want) {
					t.Errorf("stderr lacks %q:\n%s", want, stderr.String())
				}
			}
		})
	}
}

// TestSolverKillMidRequest boots the daemon against a solver binary that
// dies on every check-sat and asserts requests still succeed: the smtlib
// backend's supervision contains the crashes and the embedded fallback
// answers, so the client never sees the dead solver.
func TestSolverKillMidRequest(t *testing.T) {
	shPath, err := exec.LookPath("sh")
	if err != nil {
		t.Skip("no sh on PATH")
	}
	crasher := filepath.Join(t.TempDir(), "crash-solver.sh")
	script := "#!" + shPath + "\nwhile read line; do\n  case \"$line\" in\n  *check-sat*) exit 137 ;;\n  esac\ndone\n"
	if err := os.WriteFile(crasher, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}

	bin := buildDised(t)
	cmd, stderr, addr := startDised(t, bin, nil, "-solver", "smtlib", "-smt-solver", crasher)
	base := "http://" + addr

	art, _ := artifacts.ByName("WBS")
	var created service.CreateSessionResponse
	if status, code := postJSON(t, base+"/v1/sessions",
		service.CreateSessionRequest{Tenant: "t1", InitialSrc: art.Base, Proc: art.Proc}, &created); status != http.StatusCreated {
		t.Fatalf("create session with crashing solver: status %d code %q; stderr:\n%s", status, code, stderr.String())
	}
	var res service.ResultPayload
	if status, code := postJSON(t, base+"/v1/sessions/"+created.SessionID+"/advance",
		service.AdvanceRequest{Tenant: "t1", NextSrc: art.SourceFor(art.Versions[0])}, &res); status != http.StatusOK {
		t.Fatalf("advance with crashing solver: status %d code %q", status, code)
	}
	if len(res.Paths) == 0 {
		t.Fatal("advance under solver crashes found no paths")
	}
	// The degradation is visible in the stats, not the verdicts.
	if res.Stats.Solver.ExtUnknowns == 0 && res.Stats.Solver.ExtRestarts == 0 {
		t.Fatalf("crashing solver left no degradation trace: %+v", res.Stats.Solver)
	}

	stopDised(t, cmd, stderr)
}
