package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	degradable "degradable"
)

// chaosRun runs `degradable chaos` with args, writing to out.
func chaosRun(t *testing.T, args []string, out io.Writer) error {
	t.Helper()
	return runTo(t, out, append([]string{"chaos"}, args...)...)
}

var updateGolden = flag.Bool("update", false, "rewrite the golden campaign report")

// TestJSONReportDeterministicAndGolden runs the same seeded campaign twice
// and pins the byte-identical JSON report to a checked-in golden: campaigns
// are the repo's reproducibility showcase, so any drift is a regression in
// the engine's determinism (or an intentional change, run with -update).
// The asynchronous campaign is pinned the same way: its report is a function
// of every delivery order, so it holds the scheduler's picks and the order
// in which the A-Cast handlers emit their sends.
func TestJSONReportDeterministicAndGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"campaign_seed42.json", []string{"-seed", "42", "-runs", "200", "-json"}},
		{"campaign_seed42_async.json", []string{"-seed", "42", "-runs", "250", "-async", "-json"}},
	} {
		emit := func() string {
			var buf bytes.Buffer
			if err := chaosRun(t, tc.args, &buf); err != nil {
				t.Fatal(err)
			}
			return buf.String()
		}
		a, b := emit(), emit()
		if a != b {
			t.Fatalf("%v: same seed, different -json reports", tc.args)
		}
		matchGolden(t, tc.golden, []byte(a))
	}
}

// matchGolden compares got byte for byte to testdata/name, or rewrites the
// golden under -update.
func matchGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output drifted from golden %s (first diff near byte %d)",
			path, firstDiff(string(got), string(want)))
	}
}

// TestReplayFailingScenario feeds a mis-bounded counterexample (f = 3 > u
// lying nodes, D.1 pinned) through -replay and expects the run to fail, the
// way a shrunk reproduction must keep failing when re-executed.
func TestReplayFailingScenario(t *testing.T) {
	sc := map[string]interface{}{
		"n": 5, "m": 1, "u": 2, "senderValue": 1001, "seed": 21,
		"faults": []map[string]interface{}{
			{"node": 1, "kind": 3, "value": 2002},
			{"node": 2, "kind": 3, "value": 2002},
			{"node": 3, "kind": 3, "value": 2002},
		},
		"expect": map[string]interface{}{"condition": "D.1"},
	}
	enc, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err = chaosRun(t, []string{"-replay", string(enc)}, &buf)
	if err == nil {
		t.Fatalf("mis-bounded replay exited clean:\n%s", buf.String())
	}
	if !strings.Contains(err.Error(), "D.1") {
		t.Errorf("error does not name the pinned condition: %v", err)
	}
}

func TestReplayHealthyScenario(t *testing.T) {
	var buf bytes.Buffer
	if err := chaosRun(t, []string{"-replay", `{"n":5,"m":1,"u":2,"seed":1}`}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "expectation met") {
		t.Errorf("healthy replay output:\n%s", buf.String())
	}
}

// TestReplayCrashScenario replays a cluster-driver scenario whose JSON
// carries a mid-round kill schedule: the crash must be re-executed against
// real processes (one restart, taxonomy label) purely from the -replay
// string, proving crash counterexamples are self-contained.
func TestReplayCrashScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	sc := `{"n":5,"m":1,"u":2,"seed":11,"driver":"cluster",` +
		`"crashes":[{"node":2,"round":2,"phase":"sent"}]}`
	var buf bytes.Buffer
	if err := chaosRun(t, []string{"-replay", sc, "-json"}, &buf); err != nil {
		t.Fatalf("crash replay: %v\n%s", err, buf.String())
	}
	out := buf.String()
	var o struct {
		ExpectationMet bool                    `json:"expectationMet"`
		Convergence    string                  `json:"convergence"`
		Recovery       *map[string]interface{} `json:"recovery"`
	}
	// The outcome JSON is followed by the human "expectation met" line;
	// decode just the first value.
	if err := json.NewDecoder(strings.NewReader(out)).Decode(&o); err != nil {
		t.Fatalf("outcome JSON: %v\n%s", err, out)
	}
	if !o.ExpectationMet {
		t.Fatalf("crash replay missed expectation:\n%s", out)
	}
	if !strings.HasPrefix(o.Convergence, "Converged-in-") {
		t.Errorf("convergence %q", o.Convergence)
	}
	if o.Recovery == nil {
		t.Errorf("no recovery section in replay outcome:\n%s", out)
	}
}

func TestHumanSummary(t *testing.T) {
	var buf bytes.Buffer
	if err := chaosRun(t, []string{"-seed", "7", "-runs", "60", "-grid", "5:1:2"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"chaos campaign", "classic", "campaign healthy"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestParseGridErrors(t *testing.T) {
	for _, bad := range []string{"5:1", "5:1:x", "nonsense"} {
		if _, err := parseGrid(bad); err == nil {
			t.Errorf("parseGrid(%q) accepted", bad)
		}
	}
	gps, err := parseGrid("5:1:2,7:2:2")
	if err != nil {
		t.Fatal(err)
	}
	if len(gps) != 2 || gps[1].N != 7 || gps[1].M != 2 || gps[1].U != 2 {
		t.Errorf("parseGrid = %+v", gps)
	}
}

// TestTopologyFlagErrors covers the -graph/-placement surface's rejection
// paths: placement without a graph, unknown families, unknown placements,
// and a graph that parses but cannot be built.
func TestTopologyFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-placement", "cutset"}, "requires -graph"},
		{[]string{"-graph", "nosuch:3", "-runs", "1"}, "nosuch"},
		{[]string{"-graph", "harary:4:9", "-placement", "corners", "-runs", "1"}, "placement"},
		{[]string{"-seed", "11", "-runs", "20", "-graph", "gnp:9:0.05:1"}, "no connected graph"},
	} {
		var buf bytes.Buffer
		err := chaosRun(t, tc.args, &buf)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("chaos %v = %v, want error containing %q", tc.args, err, tc.want)
		}
	}
}

// TestTopologyCampaignDeterministic runs the same sparse-graph campaign
// twice and checks byte-identical JSON plus the per-margin breakdown, then
// checks the human summary carries the greppable margin lines.
func TestTopologyCampaignDeterministic(t *testing.T) {
	args := []string{"-seed", "5", "-runs", "50", "-graph", "harary:4:9", "-placement", "cutset", "-json"}
	emit := func() string {
		var buf bytes.Buffer
		if err := chaosRun(t, args, &buf); err != nil {
			t.Fatalf("%v\n%s", err, buf.String())
		}
		return buf.String()
	}
	a, b := emit(), emit()
	if a != b {
		t.Fatal("same seed, different sparse-campaign reports")
	}
	var rep struct {
		TopoMargins []degradable.ChaosMarginTally `json:"topoMargins"`
	}
	if err := json.Unmarshal([]byte(a), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.TopoMargins) == 0 {
		t.Fatalf("sparse campaign report has no topoMargins:\n%s", a)
	}
	for _, mt := range rep.TopoMargins {
		if mt.Margin < 0 {
			t.Errorf("strict axis produced margin %d", mt.Margin)
		}
		if mt.Violated != 0 {
			t.Errorf("margin %+d: %d violations above the Theorem 3 bound", mt.Margin, mt.Violated)
		}
	}
	var human bytes.Buffer
	if err := chaosRun(t, []string{"-seed", "5", "-runs", "50", "-graph", "harary:4:9"}, &human); err != nil {
		t.Fatalf("%v\n%s", err, human.String())
	}
	if !strings.Contains(human.String(), "topology margin=+0:") {
		t.Errorf("human summary missing topology margin line:\n%s", human.String())
	}
}

// TestReplayTopologyScenario is the PR's acceptance check at the CLI layer:
// a scenario recorded by a sparse-topology campaign replays through -replay
// from its JSON string alone — graph, mode, and placement ride inside the
// scenario, no other flags needed.
func TestReplayTopologyScenario(t *testing.T) {
	c := degradable.ChaosCampaign{
		Seed: 77, Runs: 1, Grid: parseMust(t, "9:1:2"),
		Probs: []float64{0.1}, MaxInjectors: 2,
		Topology: &degradable.ChaosTopoAxis{Graph: "harary:4:9", Placement: "cutset"},
	}
	sc := c.Generate(3)
	if sc.Topology == nil {
		t.Fatal("generated scenario carries no topology")
	}
	enc, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := chaosRun(t, []string{"-replay", string(enc)}, &buf); err != nil {
		t.Fatalf("topology replay: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "topology: harary:4:9") {
		t.Errorf("replay output missing topology line:\n%s", out)
	}
	if !strings.Contains(out, "kappa=4 margin=+0") {
		t.Errorf("replay output missing connectivity report:\n%s", out)
	}
	if !strings.Contains(out, "expectation met") {
		t.Errorf("recorded sparse scenario missed its expectation:\n%s", out)
	}
}

func parseMust(t *testing.T, s string) []degradable.ChaosGridPoint {
	t.Helper()
	gps, err := parseGrid(s)
	if err != nil {
		t.Fatal(err)
	}
	return gps
}

// TestTopoSweepWritesBench runs the boundary-table mode and pins the table
// byte for byte to its golden (the Theorem 3 result the README quotes), then
// checks what the table claims: ≥ 4 graph families, zero violations above
// the bound, and at least one cell where classic BA's connectivity bound
// refuses the graph while degradable agreement still delivers.
func TestTopoSweepWritesBench(t *testing.T) {
	var bench degradable.ChaosTopoBench
	out := runSweepGolden(t, "topo_sweep_seed9.json", &bench,
		"-seed", "9", "-topo-runs", "2", "-topo-sweep")
	families := map[string]bool{}
	for _, cell := range bench.Cells {
		families[cell.Graph] = true
		// Every logical message crosses at least one link, and on a complete
		// graph exactly one.
		if cell.HopsPerLogicalMsg < 1 {
			t.Errorf("%s/%s/f=%d: %v hops per logical message, want >= 1",
				cell.Graph, cell.Placement, cell.F, cell.HopsPerLogicalMsg)
		}
		if cell.Graph == "complete:7" && cell.HopsPerLogicalMsg != 1 {
			t.Errorf("%s/%s/f=%d: %v hops per logical message, want exactly 1",
				cell.Graph, cell.Placement, cell.F, cell.HopsPerLogicalMsg)
		}
	}
	if len(families) < 4 {
		t.Errorf("sweep covered %d graph families, want >= 4", len(families))
	}
	if bench.BoundViolations != 0 {
		t.Errorf("%d violations above the Theorem 3 bound", bench.BoundViolations)
	}
	if bench.ClassicRefused < 1 {
		t.Error("no classic-BA-refused-but-degradable-held cell in the sweep")
	}
	if !strings.Contains(out, "bound_violations=0") {
		t.Errorf("sweep summary:\n%s", out)
	}
}

// runSweepGolden runs a sweep mode whose output-path flag is the last of
// args, matches the file it writes against testdata/golden, decodes it into
// v, and returns the command's text output.
func runSweepGolden(t *testing.T, golden string, v any, args ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), golden)
	var buf bytes.Buffer
	if err := chaosRun(t, append(args, path), &buf); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	matchGolden(t, golden, got)
	if err := json.Unmarshal(got, v); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestAsyncCampaignCLI is the PR's acceptance check at the CLI layer: a
// ≥200-scenario -async campaign under the full scheduler pool (adversarial
// and starving schedules included) exits healthy with zero safety
// violations, deterministically.
func TestAsyncCampaignCLI(t *testing.T) {
	args := []string{"-seed", "42", "-runs", "250", "-async", "-json"}
	emit := func() string {
		var buf bytes.Buffer
		if err := chaosRun(t, args, &buf); err != nil {
			t.Fatalf("%v\n%s", err, buf.String())
		}
		return buf.String()
	}
	a, b := emit(), emit()
	if a != b {
		t.Fatal("same seed, different -async reports")
	}
	var rep struct {
		Completed int                         `json:"completed"`
		Violated  int                         `json:"violated"`
		Async     *degradable.ChaosAsyncTally `json:"async"`
	}
	if err := json.Unmarshal([]byte(a), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 250 || rep.Violated != 0 {
		t.Fatalf("completed=%d violated=%d", rep.Completed, rep.Violated)
	}
	if rep.Async == nil || rep.Async.SafetyViolations != 0 {
		t.Fatalf("async tally: %+v", rep.Async)
	}
	if rep.Async.Terminated == 0 || rep.Async.NotTerminated == 0 {
		t.Errorf("verdict split %d/%d: scheduler pool should produce both", rep.Async.Terminated, rep.Async.NotTerminated)
	}

	var human bytes.Buffer
	if err := chaosRun(t, []string{"-seed", "42", "-runs", "60", "-async", "-sched", "adversarial,starve"}, &human); err != nil {
		t.Fatalf("%v\n%s", err, human.String())
	}
	if !strings.Contains(human.String(), "async: terminated=") {
		t.Errorf("human summary missing async line:\n%s", human.String())
	}
}

// TestReplayAsyncScenario: a scenario recorded by an -async campaign replays
// through -replay from its JSON string alone — driver, scheduling policy,
// and fault draw all ride inside the scenario.
func TestReplayAsyncScenario(t *testing.T) {
	c := degradable.ChaosCampaign{
		Seed: 42, Runs: 1, Grid: parseMust(t, "7:2:2"),
		Probs: []float64{0.1}, MaxInjectors: 1,
		Async: &degradable.ChaosAsyncAxis{},
	}
	sc := c.Generate(2)
	enc, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := chaosRun(t, []string{"-replay", string(enc)}, &buf); err != nil {
		t.Fatalf("async replay: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "regime async") {
		t.Errorf("replay output missing async regime:\n%s", out)
	}
	if !strings.Contains(out, "expectation met") {
		t.Errorf("recorded async scenario missed its expectation:\n%s", out)
	}
}

// TestCountFlagErrors checks a count flag below 1 is rejected by name
// instead of falling back to the campaign's default.
func TestCountFlagErrors(t *testing.T) {
	sweep := filepath.Join(t.TempDir(), "sweep.json") // written only if a row is accepted
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-runs", "0"}, "-runs 0"},
		{[]string{"-runs", "-5"}, "-runs -5"},
		{[]string{"-max-injectors", "0", "-runs", "5"}, "-max-injectors 0"},
		{[]string{"-topo-runs", "0", "-topo-sweep", sweep}, "-topo-runs 0"},
		{[]string{"-async-runs", "0", "-async-sweep", sweep}, "-async-runs 0"},
	} {
		var buf bytes.Buffer
		err := chaosRun(t, tc.args, &buf)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("chaos %v = %v, want error containing %q", tc.args, err, tc.want)
		}
	}
}

func TestAsyncFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-sched", "adversarial"}, "requires -async"},
		{[]string{"-async", "-sched", "lifo", "-runs", "1"}, "lifo"},
		{[]string{"-async", "-graph", "harary:4:9", "-runs", "1"}, "mutually exclusive"},
	} {
		var buf bytes.Buffer
		err := chaosRun(t, tc.args, &buf)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("chaos %v = %v, want error containing %q", tc.args, err, tc.want)
		}
	}
}

// TestAsyncSweepWritesBench runs the scheduling benchmark at the committed
// golden's settings and pins it byte for byte (the FIFO-vs-adversarial table
// is a function of every delivery order), then checks what it claims: one
// row per scheduler, zero safety violations, non-empty percentiles.
func TestAsyncSweepWritesBench(t *testing.T) {
	var bench degradable.ChaosAsyncBench
	out := runSweepGolden(t, "async_sweep_seed7.json", &bench,
		"-seed", "7", "-async-runs", "200", "-async-sweep")
	if len(bench.Rows) != 2 {
		t.Fatalf("rows: %+v", bench.Rows)
	}
	for _, row := range bench.Rows {
		if row.SafetyViolations != 0 {
			t.Errorf("%s: %d safety violations", row.Sched, row.SafetyViolations)
		}
		if row.DTDp50 <= 0 {
			t.Errorf("%s: empty dtd percentiles", row.Sched)
		}
	}
	if !strings.Contains(out, "safety_violations=0") {
		t.Errorf("sweep summary:\n%s", out)
	}
}

// TestInterruptPrintsPartialTallies delivers SIGINT mid-campaign and checks
// the CLI prints the partial report instead of discarding it, and exits 1
// with the interrupted error.
func TestInterruptPrintsPartialTallies(t *testing.T) {
	var buf, errBuf bytes.Buffer
	done := make(chan int, 1)
	go func() {
		// A large campaign so the signal lands mid-run; the runs count only
		// bounds the sweep, interruption cuts it short.
		done <- dispatch([]string{"chaos", "-seed", "3", "-runs", "200000"}, &buf, &errBuf)
	}()
	time.Sleep(200 * time.Millisecond)
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 1 || !strings.Contains(errBuf.String(), "interrupted") {
			t.Fatalf("interrupted campaign exited %d: %s", code, errBuf.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatal("campaign did not stop on SIGINT")
	}
	out := buf.String()
	if !strings.Contains(out, "INTERRUPTED") {
		t.Errorf("partial report missing interrupted marker:\n%s", out)
	}
	if !strings.Contains(out, "outcome classes by fault regime") {
		t.Errorf("partial tallies not printed:\n%s", out)
	}
}
