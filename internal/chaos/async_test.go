package chaos

import (
	"encoding/json"
	"strings"
	"testing"

	"degradable/internal/adversary"
	"degradable/internal/types"
)

func TestAsyncScenarioFaultFree(t *testing.T) {
	for _, sched := range []string{"", "reorder", "delay:8", "adversarial"} {
		sc := Scenario{N: 4, Seed: 11, Driver: DriverAsync, Sched: sched}
		out, err := sc.Run()
		if err != nil {
			t.Fatalf("%q: %v", sched, err)
		}
		if out.ClassValue() != SpecHeld || !out.ExpectationMet {
			t.Fatalf("%q: class=%s met=%v (%s)", sched, out.Class, out.ExpectationMet, out.Reason)
		}
		if out.Async == nil {
			t.Fatalf("%q: no async block", sched)
		}
		if out.Async.SafetyViolations != 0 {
			t.Errorf("%q: %d safety violations fault-free", sched, out.Async.SafetyViolations)
		}
		if !strings.HasPrefix(out.Async.Verdict, "Terminated-after-") {
			t.Errorf("%q: verdict %q, want Terminated-after-k-deliveries", sched, out.Async.Verdict)
		}
		if out.Condition != out.Async.Verdict {
			t.Errorf("%q: condition %q does not carry the async verdict", sched, out.Condition)
		}
		if out.Async.Decided != 4 || out.Async.CertTotal != 4 {
			t.Errorf("%q: decided/certs = %d/%d, want 4/4", sched, out.Async.Decided, out.Async.CertTotal)
		}
		if out.Async.DTDMax <= 0 || out.Async.DTDMax > out.Async.Deliveries {
			t.Errorf("%q: dtdMax %d out of range (deliveries %d)", sched, out.Async.DTDMax, out.Async.Deliveries)
		}
	}
}

// TestAsyncScenarioStarvation: targeted starvation of one honest node
// withholds termination but never safety — the NotTerminated verdict with
// zero violations, classified SpecHeld.
func TestAsyncScenarioStarvation(t *testing.T) {
	sc := Scenario{N: 4, Seed: 3, Driver: DriverAsync, Sched: "starve:2"}
	out, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Async.Verdict != "NotTerminated" {
		t.Fatalf("verdict %q, want NotTerminated", out.Async.Verdict)
	}
	if !out.Async.Starved {
		t.Error("Starved flag unset on a withholding schedule")
	}
	if out.Async.SafetyViolations != 0 {
		t.Errorf("%d safety violations under starvation", out.Async.SafetyViolations)
	}
	if out.ClassValue() != SpecHeld || !out.ExpectationMet {
		t.Errorf("class=%s met=%v: withheld termination is not a spec violation", out.Class, out.ExpectationMet)
	}
	if out.Async.Decided != 3 {
		t.Errorf("decided=%d, want 3 (everyone but the starved node)", out.Async.Decided)
	}
}

func TestAsyncScenarioByzantine(t *testing.T) {
	// Every adversary kind, one at a time, within tolerance (n=4, f=1):
	// safety must hold under the adversarial scheduler.
	for _, kind := range []adversary.Kind{
		adversary.KindSilent, adversary.KindCrash, adversary.KindLie,
		adversary.KindTwoFaced, adversary.KindRandom,
	} {
		for _, node := range []int{0, 2} { // faulty broadcaster and faulty receiver
			sc := Scenario{
				N: 4, Seed: 19, Driver: DriverAsync, Sched: "adversarial",
				Faults: []adversary.FaultSpec{{Node: types.NodeID(node), Kind: kind, Value: 2002, Seed: 5}},
			}
			out, err := sc.Run()
			if err != nil {
				t.Fatalf("%v@%d: %v", kind, node, err)
			}
			if out.Async.SafetyViolations != 0 {
				t.Errorf("%v@%d: %d safety violations within tolerance", kind, node, out.Async.SafetyViolations)
			}
			if out.ClassValue() != SpecHeld {
				t.Errorf("%v@%d: class=%s (%s)", kind, node, out.Class, out.Reason)
			}
			if out.Regime != "async" {
				t.Errorf("%v@%d: regime %q, want async", kind, node, out.Regime)
			}
			// A silent broadcaster leaves nobody decided: SpecHeld above
			// pins the floor rule, which exempts an unterminated run from
			// the §2 floor because the floor counts nodes that decided.
			if kind == adversary.KindSilent && node == 0 && (out.Async.Verdict != "NotTerminated" || out.Async.Decided != 0) {
				t.Errorf("silent@0: verdict %q decided=%d, want NotTerminated with no decision", out.Async.Verdict, out.Async.Decided)
			}
		}
	}
}

func TestAsyncScenarioReplaysFromJSON(t *testing.T) {
	sc := Scenario{
		N: 7, Seed: 23, Driver: DriverAsync, Sched: "adversarial",
		Faults: []adversary.FaultSpec{{Node: 3, Kind: adversary.KindTwoFaced, Value: 3003}},
	}
	a, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	var rt Scenario
	if err := json.Unmarshal(raw, &rt); err != nil {
		t.Fatal(err)
	}
	b, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Fatalf("JSON round-trip changed the outcome:\n %s\n %s", aj, bj)
	}
	if a.Async.Deliveries == 0 {
		t.Fatal("replayed run delivered nothing")
	}
}

func TestAsyncReproGoRoutesToReplay(t *testing.T) {
	sc := Scenario{N: 4, Seed: 1, Driver: DriverAsync, Sched: "starve:1"}
	repro := ReproGo(sc)
	if !strings.Contains(repro, "ChaosReplay") {
		t.Fatalf("async repro must replay through the chaos facade (schedules are not expressible via Agree):\n%s", repro)
	}
	if strings.Contains(repro, "degradable.Agree(") {
		t.Fatalf("async repro rendered as a synchronous Agree call:\n%s", repro)
	}
}

// TestAsyncCampaignClean is the acceptance gate: ≥200 seeded async
// scenarios under the full scheduler pool (adversarial and starving
// included) report zero agreement/validity violations, with both
// termination verdicts represented.
func TestAsyncCampaignClean(t *testing.T) {
	c := Campaign{Seed: 42, Runs: 250, Async: &AsyncAxis{}}
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy() {
		t.Fatalf("async campaign unhealthy: %d violated, %d failures", rep.Violated, len(rep.Failures))
	}
	if rep.Async == nil {
		t.Fatal("no async tally on an async campaign")
	}
	if rep.Async.SafetyViolations != 0 {
		t.Fatalf("%d safety violations across %d scenarios", rep.Async.SafetyViolations, rep.Completed)
	}
	if rep.Completed != 250 {
		t.Fatalf("completed %d of 250", rep.Completed)
	}
	if rep.Async.Terminated == 0 || rep.Async.NotTerminated == 0 {
		t.Errorf("verdict split %d/%d: the scheduler pool should produce both verdicts", rep.Async.Terminated, rep.Async.NotTerminated)
	}
	// Every starved run is NotTerminated (the converse need not hold: a
	// silent broadcaster quiesces the queue under fair policies too).
	if rep.Async.Starved == 0 || rep.Async.Starved > rep.Async.NotTerminated {
		t.Errorf("starved=%d notTerminated=%d: starve policies should appear and imply NotTerminated", rep.Async.Starved, rep.Async.NotTerminated)
	}
	if rep.Async.CertTotal == 0 {
		t.Error("no delivery certificates across the whole campaign")
	}
}

func TestAsyncCampaignDeterministic(t *testing.T) {
	run := func() string {
		rep, err := Campaign{Seed: 9, Runs: 40, Async: &AsyncAxis{}}.Run()
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if a, b := run(), run(); a != b {
		t.Fatal("same seed, different async campaign reports")
	}
}

// TestAsyncAxisOffPreservesStream pins the golden-stream discipline: the
// async branch must not perturb synchronous scenario generation.
func TestAsyncAxisOffPreservesStream(t *testing.T) {
	c := Campaign{Seed: 42, Runs: 10, Grid: DefaultGrid(), MaxInjectors: 3, Probs: DefaultProbs()}
	for i := 0; i < 10; i++ {
		sc := c.Generate(i)
		if sc.Driver == DriverAsync || sc.Sched != "" {
			t.Fatalf("scenario %d: async fields leaked into a synchronous campaign: %+v", i, sc)
		}
	}
}

func TestAsyncSweep(t *testing.T) {
	bench, err := AsyncSweep(7, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(bench.Rows) != 2 || bench.Rows[0].Sched != "fifo" || bench.Rows[1].Sched != "adversarial" {
		t.Fatalf("rows: %+v", bench.Rows)
	}
	for _, row := range bench.Rows {
		if row.SafetyViolations != 0 {
			t.Errorf("%s: %d safety violations fault-free", row.Sched, row.SafetyViolations)
		}
		if row.NotTerminated != 0 {
			t.Errorf("%s: %d fault-free runs failed to terminate", row.Sched, row.NotTerminated)
		}
		if row.DTDp50 <= 0 || row.DTDp95 < row.DTDp50 || row.DTDp99 < row.DTDp95 {
			t.Errorf("%s: degenerate percentiles %v/%v/%v", row.Sched, row.DTDp50, row.DTDp95, row.DTDp99)
		}
		if row.CertTotal == 0 || row.EchoTotal == 0 || row.ReadyTotal == 0 {
			t.Errorf("%s: empty certificate traffic %d/%d/%d", row.Sched, row.EchoTotal, row.ReadyTotal, row.CertTotal)
		}
	}
	// Identical workloads, so the certificate counts match across rows;
	// only the schedule (and hence the latency) differs.
	if bench.Rows[0].CertTotal != bench.Rows[1].CertTotal {
		t.Errorf("cert totals differ across schedulers: %d vs %d", bench.Rows[0].CertTotal, bench.Rows[1].CertTotal)
	}
}

// TestAsyncExpectation: async scenarios are held to their expectation like
// every other driver's — a pinned condition is checked, and a level
// overrides the one the tolerance resolves.
func TestAsyncExpectation(t *testing.T) {
	lyingSender := []adversary.FaultSpec{{Node: 0, Kind: adversary.KindLie, Value: 2002}}
	for _, tc := range []struct {
		name   string
		expect Expectation
		met    bool
		reason string
	}{
		{"pinned D.1 missed", Expectation{Condition: "D.1"}, false,
			"pinned condition D.1 failed: D.1: node 1 decided 2002, want sender's 1001"},
		{"level none met", Expectation{Level: LevelNone}, true, ""},
	} {
		sc := Scenario{N: 4, SenderValue: harnessValue, Seed: 5, Driver: DriverAsync, Sched: "adversarial", Faults: lyingSender, Expect: tc.expect}
		out, err := sc.Run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if out.ExpectationMet != tc.met || out.ExpectReason != tc.reason {
			t.Errorf("%s: met=%v reason %q, want met=%v reason %q", tc.name, out.ExpectationMet, out.ExpectReason, tc.met, tc.reason)
		}
		if out.Level != "async" {
			t.Errorf("%s: level %q, want async", tc.name, out.Level)
		}
	}
}

// TestOneJudgeCatchesMutation flips fault-free receiver 2's decision after
// an honest run: the synchronous and the asynchronous track must miss
// their expectation through the same spec path, with one class and one
// reason.
func TestOneJudgeCatchesMutation(t *testing.T) {
	flip := func(sc Scenario) (*ExecOutcome, error) {
		eo, err := inProcess(sc)
		if err == nil {
			eo.Decisions[2] = harnessValue + 1
		}
		return eo, err
	}
	const want = "D.1: node 2 decided 1002, want sender's 1001"
	for _, sc := range []Scenario{
		{N: 4, M: 1, U: 1, SenderValue: harnessValue, Seed: 3},
		{N: 4, SenderValue: harnessValue, Seed: 3, Driver: DriverAsync},
		{N: 7, SenderValue: harnessValue, Seed: 3, Driver: DriverAsync, Sched: "adversarial"},
	} {
		out, err := sc.RunWith(flip)
		if err != nil {
			t.Fatalf("%s n=%d: %v", sc.Driver, sc.N, err)
		}
		if out.ExpectationMet || out.ClassValue() != GracefulOnly || out.Reason != want {
			t.Errorf("%q n=%d: met=%v class=%s reason %q, want missed GracefulOnly %q",
				sc.Driver, sc.N, out.ExpectationMet, out.Class, out.Reason, want)
		}
		if sc.Driver == DriverAsync && out.Async.SafetyViolations != 1 {
			t.Errorf("async n=%d: safetyViolations=%d, want 1", sc.N, out.Async.SafetyViolations)
		}
	}
}

// TestAsyncBeyondTolerance: past n > 3f nothing is promised, so a run with
// two two-faced nodes at n=4 holds the (empty) spec whatever it decides.
func TestAsyncBeyondTolerance(t *testing.T) {
	sc := Scenario{
		N: 4, Seed: 7, Driver: DriverAsync, Sched: "adversarial",
		Faults: []adversary.FaultSpec{
			{Node: 0, Kind: adversary.KindTwoFaced, Value: 2002},
			{Node: 3, Kind: adversary.KindTwoFaced, Value: 3003},
		},
	}
	out, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Regime != "async-beyond" || out.ClassValue() != SpecHeld || !out.OK || !out.ExpectationMet {
		t.Errorf("regime %q class=%s ok=%v met=%v, want async-beyond SpecHeld ok met", out.Regime, out.Class, out.OK, out.ExpectationMet)
	}
}
