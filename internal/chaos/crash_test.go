package chaos

import (
	"encoding/json"
	"strings"
	"testing"

	"degradable/internal/adversary"
	"degradable/internal/types"
)

// TestCrashValidation rejects malformed crash schedules.
func TestCrashValidation(t *testing.T) {
	base := Scenario{N: 5, M: 1, U: 2, Seed: 1}
	cases := []struct {
		name    string
		crashes []CrashSpec
		faults  []adversary.FaultSpec
		wantErr string
	}{
		{"node out of range", []CrashSpec{{Node: 5, Round: 1}}, nil, "out of range"},
		{"duplicate victim", []CrashSpec{{Node: 2, Round: 1}, {Node: 2, Round: 2}}, nil, "twice"},
		{"victim also Byzantine", []CrashSpec{{Node: 1, Round: 1}},
			[]adversary.FaultSpec{{Node: 1, Kind: adversary.KindLie, Value: 2002}}, "Byzantine"},
		{"round zero", []CrashSpec{{Node: 2, Round: 0}}, nil, "outside"},
		{"round beyond depth", []CrashSpec{{Node: 2, Round: 3}}, nil, "outside"},
		{"unknown phase", []CrashSpec{{Node: 2, Round: 1, Phase: "mid"}}, nil, "phase"},
		{"unknown corruption", []CrashSpec{{Node: 2, Round: 1, Corrupt: "zero"}}, nil, "corruption"},
		{"stale at round 1", []CrashSpec{{Node: 2, Round: 1, Corrupt: CorruptStale}}, nil, "stale"},
		{"corrupt without restart", []CrashSpec{{Node: 2, Round: 1, Corrupt: CorruptBitFlip, NoRestart: true}}, nil, "no restart"},
	}
	for _, tc := range cases {
		sc := base
		sc.Crashes = tc.crashes
		sc.Faults = tc.faults
		if _, err := sc.Run(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestCrashInEchoRound validates crash rounds against the protocol's depth,
// not m+1: the m = 0 protocol for N ≥ 3 runs a second, echo round, so a
// crash there is a schedule to run and a crash past it is still rejected.
func TestCrashInEchoRound(t *testing.T) {
	for _, tc := range []struct {
		replay  string
		wantErr string
	}{
		{`{"n":3,"m":0,"u":1,"crashes":[{"node":2,"round":2}]}`, ""},
		{`{"n":3,"m":0,"u":1,"crashes":[{"node":2,"round":3}]}`, "crash round 3 outside [1,2]"},
	} {
		var sc Scenario
		if err := json.Unmarshal([]byte(tc.replay), &sc); err != nil {
			t.Fatal(err)
		}
		out, err := sc.Run()
		switch {
		case tc.wantErr != "":
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: error %v, want %q", tc.replay, err, tc.wantErr)
			}
		case err != nil:
			t.Errorf("%s: %v", tc.replay, err)
		case out.ClassValue() != SpecHeld || out.Condition != "D.3" || !out.ExpectationMet:
			t.Errorf("%s: %s under %s (expectation met %v), want SpecHeld under D.3",
				tc.replay, out.Class, out.Condition, out.ExpectationMet)
		}
	}
}

// TestCrashCountsTowardFaultBudget checks a crash victim is part of the
// scenario's fault set: it shifts the regime and is excluded from the spec's
// fault-free decisions, while the run still holds the full spec (a crash is
// a benign fault within bounds).
func TestCrashCountsTowardFaultBudget(t *testing.T) {
	sc := Scenario{
		N: 5, M: 1, U: 2, Seed: 3,
		Faults:  []adversary.FaultSpec{{Node: 1, Kind: adversary.KindLie, Value: 2002}},
		Crashes: []CrashSpec{{Node: 2, Round: 1}},
	}
	if sc.F() != 2 {
		t.Fatalf("F() = %d, want 2", sc.F())
	}
	if !sc.Faulty().Contains(2) {
		t.Fatal("crash victim missing from Faulty()")
	}
	out, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Regime != "degraded" {
		t.Errorf("regime %q, want degraded (f=2 > m=1)", out.Regime)
	}
	if !out.ExpectationMet {
		t.Errorf("expectation missed: %s", out.ExpectReason)
	}
	if out.Recovery != nil || out.Convergence != "" {
		t.Errorf("in-process surrogate reported recovery %+v / %q", out.Recovery, out.Convergence)
	}
}

// TestCrashReplayByteIdentical replays a crash scenario twice through the
// in-process surrogate and requires byte-identical outcomes: the repro a
// campaign records for a crash schedule is deterministic.
func TestCrashReplayByteIdentical(t *testing.T) {
	sc := Scenario{
		N: 7, M: 2, U: 2, Seed: 99, Driver: DriverCluster,
		Faults:    []adversary.FaultSpec{{Node: 3, Kind: adversary.KindTwoFaced, Value: 3003}},
		Crashes:   []CrashSpec{{Node: 5, Round: 2, Phase: CrashPhaseClosed, Corrupt: CorruptBitFlip}},
		Injectors: []Injector{{Kind: Duplicate, P: 0.2}},
	}
	enc, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Scenario
	if err := json.Unmarshal(enc, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.Crashes) != 1 || decoded.Crashes[0] != sc.Crashes[0] {
		t.Fatalf("crash schedule did not survive the JSON round trip: %+v", decoded.Crashes)
	}
	a, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := decoded.Run()
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("replay diverged:\n%s\n%s", ja, jb)
	}
}

// recoveryExec wraps the in-process executor and stamps a canned
// RecoveryInfo onto the outcome, standing in for the cluster driver's
// observations so the judging path is testable without processes.
func recoveryExec(ri *RecoveryInfo) Executor {
	return func(sc Scenario) (*ExecOutcome, error) {
		eo, err := inProcess(sc)
		if err != nil {
			return nil, err
		}
		eo.Recovery = ri
		return eo, nil
	}
}

// TestCrashRecoveryJudging drives the convergence taxonomy and the recovery
// expectations through canned RecoveryInfo values.
func TestCrashRecoveryJudging(t *testing.T) {
	restart := Scenario{N: 5, M: 1, U: 2, Seed: 7,
		Crashes: []CrashSpec{{Node: 2, Round: 1}}}
	corrupt := Scenario{N: 5, M: 1, U: 2, Seed: 7,
		Crashes: []CrashSpec{{Node: 2, Round: 2, Corrupt: CorruptBitFlip}}}
	permanent := Scenario{N: 5, M: 1, U: 2, Seed: 7,
		Crashes: []CrashSpec{{Node: 2, Round: 1, NoRestart: true}}}

	cases := []struct {
		name        string
		sc          Scenario
		ri          *RecoveryInfo
		wantMet     bool
		wantLabel   string
		reasonHints string
	}{
		{"clean restart", restart,
			&RecoveryInfo{Restarts: 1, LostRounds: 1}, true, "Converged-in-1-rounds", ""},
		{"victim never rejoined", restart,
			&RecoveryInfo{Unrecovered: 1}, false, NeverConverged, "never converged"},
		{"lost rounds beyond m+1", restart,
			&RecoveryInfo{Restarts: 1, LostRounds: 3}, false, "Converged-in-3-rounds", "beyond the m+1"},
		{"corruption caught", corrupt,
			&RecoveryInfo{Restarts: 1, LostRounds: 2, CorruptRejected: 1}, true, "Converged-in-2-rounds", ""},
		{"corruption imported silently", corrupt,
			&RecoveryInfo{Restarts: 1, LostRounds: 0}, false, "Converged-in-0-rounds", "no restore rejected"},
		{"permanent kill", permanent,
			&RecoveryInfo{Unrecovered: 1}, true, NeverConverged, ""},
	}
	for _, tc := range cases {
		out, err := tc.sc.RunWith(recoveryExec(tc.ri))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if out.ExpectationMet != tc.wantMet {
			t.Errorf("%s: ExpectationMet = %v (%s), want %v",
				tc.name, out.ExpectationMet, out.ExpectReason, tc.wantMet)
		}
		if out.Convergence != tc.wantLabel {
			t.Errorf("%s: convergence %q, want %q", tc.name, out.Convergence, tc.wantLabel)
		}
		if tc.reasonHints != "" && !strings.Contains(out.ExpectReason, tc.reasonHints) {
			t.Errorf("%s: reason %q does not mention %q", tc.name, out.ExpectReason, tc.reasonHints)
		}
	}
}

// TestShrinkDropsSuperfluousCrashes appends crash events to the misbounded
// demo scenario; the shrinker must discover the Byzantine faults alone carry
// the failure and delete the crash schedule.
func TestShrinkDropsSuperfluousCrashes(t *testing.T) {
	sc := misbounded()
	sc.Crashes = []CrashSpec{{Node: 6, Round: 1, Phase: CrashPhaseClosed}}
	full, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if full.ExpectationMet {
		t.Fatal("crash-augmented misbounded scenario met its pinned expectation")
	}
	shrunk, steps, err := Shrink(sc)
	if err != nil {
		t.Fatal(err)
	}
	if shrunk.ExpectationMet {
		t.Fatal("shrunk scenario no longer fails")
	}
	if steps == 0 {
		t.Fatal("no reduction steps accepted")
	}
	if len(shrunk.Scenario.Crashes) != 0 {
		t.Errorf("crash schedule survived shrinking: %+v", shrunk.Scenario.Crashes)
	}
}

// TestCampaignGeneratesCrashes checks the knob produces valid schedules and
// that a crash-free campaign's scenario stream is unchanged by the new
// generator code path.
func TestCampaignGeneratesCrashes(t *testing.T) {
	plain := Campaign{Seed: 42, Grid: DefaultGrid(), Probs: DefaultProbs(), MaxInjectors: 3}
	withCrashes := plain
	withCrashes.Crashes = 2
	seen := 0
	for i := 0; i < 200; i++ {
		a := plain.Generate(i)
		b := withCrashes.Generate(i)
		if len(a.Crashes) != 0 {
			t.Fatalf("scenario %d: crash-free campaign generated crashes", i)
		}
		// The crash knob must not disturb any earlier generator draw.
		a.Crashes = b.Crashes
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		if string(ja) != string(jb) {
			t.Fatalf("scenario %d: crash knob disturbed generation:\n%s\n%s", i, ja, jb)
		}
		if len(b.Crashes) == 0 {
			continue
		}
		seen++
		if err := b.ValidateCrashes(); err != nil {
			t.Fatalf("scenario %d: generated invalid crash schedule: %v", i, err)
		}
		armed := make(map[types.NodeID]bool)
		for _, f := range b.Faults {
			armed[f.Node] = true
		}
		for _, cr := range b.Crashes {
			if cr.Node == b.Sender || armed[cr.Node] {
				t.Fatalf("scenario %d: victim %d is the sender or Byzantine", i, int(cr.Node))
			}
		}
		if b.F() > b.U {
			t.Fatalf("scenario %d: crashes pushed f=%d beyond u=%d", i, b.F(), b.U)
		}
	}
	if seen == 0 {
		t.Fatal("no generated scenario carried a crash schedule")
	}
}
