package degradable_test

import (
	"errors"
	"testing"

	degradable "degradable"
)

func TestMinNodesPublic(t *testing.T) {
	n, err := degradable.MinNodes(1, 2)
	if err != nil || n != 5 {
		t.Errorf("MinNodes(1,2) = %d, %v", n, err)
	}
	if _, err := degradable.MinNodes(2, 1); err == nil {
		t.Error("infeasible pair should error")
	}
	c, err := degradable.MinConnectivity(1, 2)
	if err != nil || c != 4 {
		t.Errorf("MinConnectivity(1,2) = %d, %v", c, err)
	}
}

func TestAgreeFaultFree(t *testing.T) {
	res, err := degradable.Agree(degradable.Config{N: 5, M: 1, U: 2}, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || res.Condition != "D.1" {
		t.Fatalf("result = %+v", res)
	}
	for id, d := range res.Decisions {
		if d != 42 {
			t.Errorf("node %d decided %v", int(id), d)
		}
	}
	if res.Rounds != 2 {
		t.Errorf("Rounds = %d", res.Rounds)
	}
	if res.Messages == 0 {
		t.Error("no messages counted")
	}
}

func TestAgreeEachFaultKind(t *testing.T) {
	kinds := []degradable.Fault{
		{Node: 3, Kind: degradable.FaultSilent},
		{Node: 3, Kind: degradable.FaultCrash},
		{Node: 3, Kind: degradable.FaultLie, Value: 99},
		{Node: 3, Kind: degradable.FaultTwoFaced, Value: 99},
		{Node: 3, Kind: degradable.FaultRandom, Value: 99, Seed: 7},
	}
	for _, f := range kinds {
		res, err := degradable.Agree(degradable.Config{N: 5, M: 1, U: 2}, 42, f)
		if err != nil {
			t.Fatalf("fault %v: %v", f.Kind, err)
		}
		if !res.OK {
			t.Errorf("fault %v: %s violated: %s", f.Kind, res.Condition, res.Reason)
		}
		if res.Decisions[1] != 42 {
			t.Errorf("fault %v: node 1 decided %v with one fault (D.1)", f.Kind, res.Decisions[1])
		}
	}
}

func TestAgreeDegradedRegime(t *testing.T) {
	res, err := degradable.Agree(degradable.Config{N: 5, M: 1, U: 2}, 42,
		degradable.Fault{Node: 3, Kind: degradable.FaultSilent},
		degradable.Fault{Node: 4, Kind: degradable.FaultSilent},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Condition != "D.3" || !res.OK || !res.Graceful {
		t.Fatalf("result = %+v", res)
	}
	for _, id := range []degradable.NodeID{1, 2} {
		d := res.Decisions[id]
		if d != 42 && d != degradable.Default {
			t.Errorf("node %d decided %v, want 42 or V_d", int(id), d)
		}
	}
}

func TestAgreeFaultySender(t *testing.T) {
	res, err := degradable.Agree(degradable.Config{N: 5, M: 1, U: 2}, 42,
		degradable.Fault{Node: 0, Kind: degradable.FaultTwoFaced, Value: 7},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Condition != "D.2" || !res.OK {
		t.Fatalf("result = %+v", res)
	}
}

func TestAgreeValidation(t *testing.T) {
	if _, err := degradable.Agree(degradable.Config{N: 4, M: 1, U: 2}, 1); err == nil {
		t.Error("N too small should error")
	}
	if _, err := degradable.Agree(degradable.Config{N: 5, M: 1, U: 2}, 1,
		degradable.Fault{Node: 2, Kind: degradable.FaultSilent},
		degradable.Fault{Node: 2, Kind: degradable.FaultLie},
	); err == nil {
		t.Error("double-armed node should error")
	}
	if _, err := degradable.Agree(degradable.Config{N: 5, M: 1, U: 2}, 1,
		degradable.Fault{Node: 2, Kind: 0},
	); err == nil {
		t.Error("unknown fault kind should error")
	}
}

func TestAgreeOM(t *testing.T) {
	res, err := degradable.AgreeOM(4, 1, 42, degradable.Fault{Node: 2, Kind: degradable.FaultLie, Value: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || res.Decisions[1] != 42 {
		t.Fatalf("result = %+v", res)
	}
	if _, err := degradable.AgreeOM(3, 1, 42); err == nil {
		t.Error("N <= 3m should error")
	}
}

func TestAgreeCrusader(t *testing.T) {
	res, err := degradable.AgreeCrusader(4, 1, 42, degradable.Fault{Node: 2, Kind: degradable.FaultSilent})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || res.Decisions[1] != 42 {
		t.Fatalf("result = %+v", res)
	}
	if res.Rounds != 2 {
		t.Errorf("crusader rounds = %d", res.Rounds)
	}
	if _, err := degradable.AgreeCrusader(3, 1, 42); err == nil {
		t.Error("N <= 3f should error")
	}
}

func TestSevenNodeTradeoffPublic(t *testing.T) {
	// The paper's worked example: the same 7 nodes support 2/2, 1/4, 0/6.
	for _, mu := range [][2]int{{2, 2}, {1, 4}, {0, 6}} {
		cfg := degradable.Config{N: 7, M: mu[0], U: mu[1]}
		res, err := degradable.Agree(cfg, 42,
			degradable.Fault{Node: 5, Kind: degradable.FaultLie, Value: 1},
		)
		if err != nil {
			t.Fatalf("%v: %v", mu, err)
		}
		if !res.OK {
			t.Errorf("%v: %s violated: %s", mu, res.Condition, res.Reason)
		}
	}
}

func TestAgreeSM(t *testing.T) {
	// SM(2) at its minimum size N = 4 masks two lying receivers.
	res, err := degradable.AgreeSM(4, 2, 42,
		degradable.Fault{Node: 2, Kind: degradable.FaultLie, Value: 9},
		degradable.Fault{Node: 3, Kind: degradable.FaultTwoFaced, Value: 9},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("SM verdict: %s", res.Reason)
	}
	if res.Decisions[1] != 42 {
		t.Errorf("node 1 decided %v", res.Decisions[1])
	}
	if res.Rounds != 3 {
		t.Errorf("SM(2) rounds = %d, want 3", res.Rounds)
	}
}

func TestAgreeSMFaultySenderEquivocates(t *testing.T) {
	res, err := degradable.AgreeSM(4, 1, 42,
		degradable.Fault{Node: 0, Kind: degradable.FaultTwoFaced, Value: 9},
	)
	if err != nil {
		t.Fatal(err)
	}
	// All fault-free receivers must still agree on one value (signed
	// equivocation is exposed and collapses to V_d).
	if !res.OK {
		t.Fatalf("SM verdict: %s", res.Reason)
	}
	if got := res.Decisions[1]; got != degradable.Default {
		t.Errorf("equivocating signed sender should yield V_d, got %v", got)
	}
}

func TestAgreeSMValidation(t *testing.T) {
	if _, err := degradable.AgreeSM(2, 1, 42); err == nil {
		t.Error("N < m+2 should error")
	}
	if _, err := degradable.AgreeSM(4, 1, 42,
		degradable.Fault{Node: 1, Kind: degradable.FaultSilent},
		degradable.Fault{Node: 1, Kind: degradable.FaultLie},
	); err == nil {
		t.Error("double-armed node should error")
	}
	if _, err := degradable.AgreeSM(4, 1, 42, degradable.Fault{Node: 1, Kind: 0}); err == nil {
		t.Error("unknown fault kind should error")
	}
}

// TestAgreeSMAllFaultKinds arms each fault kind on a receiver and on the
// sender of SM(1) at N = 4 and pins every node's decision and the message
// count to what the facade's own SM fault table produced before faults went
// through adversary.Kind.Build.
func TestAgreeSMAllFaultKinds(t *testing.T) {
	const d = degradable.Default
	for _, tc := range []struct {
		kind      degradable.FaultKind
		node      degradable.NodeID
		decisions [4]degradable.Value
		messages  int
	}{
		{degradable.FaultSilent, 2, [4]degradable.Value{42, 42, 42, 42}, 7},
		{degradable.FaultCrash, 2, [4]degradable.Value{42, 42, 42, 42}, 7},
		{degradable.FaultLie, 2, [4]degradable.Value{42, 42, 42, 42}, 9},
		{degradable.FaultTwoFaced, 2, [4]degradable.Value{42, 42, 42, 42}, 9},
		{degradable.FaultRandom, 2, [4]degradable.Value{42, 42, 42, 42}, 9},
		{degradable.FaultSilent, 0, [4]degradable.Value{42, d, d, d}, 0},
		{degradable.FaultCrash, 0, [4]degradable.Value{42, 42, 42, 42}, 9},
		{degradable.FaultLie, 0, [4]degradable.Value{42, 9, 9, 9}, 9},
		{degradable.FaultTwoFaced, 0, [4]degradable.Value{42, d, d, d}, 9},
		{degradable.FaultRandom, 0, [4]degradable.Value{42, d, d, d}, 9},
	} {
		res, err := degradable.AgreeSM(4, 1, 42, degradable.Fault{Node: tc.node, Kind: tc.kind, Value: 9, Seed: 5})
		if err != nil {
			t.Fatalf("kind %v on %d: %v", tc.kind, tc.node, err)
		}
		want := "D.1"
		if tc.node == 0 {
			want = "D.2"
		}
		if !res.OK || res.Condition != want {
			t.Errorf("kind %v on %d: %s held=%v (%s), want %s held", tc.kind, tc.node, res.Condition, res.OK, res.Reason, want)
		}
		for id, v := range tc.decisions {
			if got := res.Decisions[degradable.NodeID(id)]; got != v {
				t.Errorf("kind %v on %d: node %d decided %v, want %v", tc.kind, tc.node, id, got, v)
			}
		}
		if res.Messages != tc.messages {
			t.Errorf("kind %v on %d: %d messages, want %d", tc.kind, tc.node, res.Messages, tc.messages)
		}
	}
}

func TestSentinelErrorsPublic(t *testing.T) {
	_, err := degradable.Agree(degradable.Config{N: 4, M: 1, U: 2}, 1)
	if !errors.Is(err, degradable.ErrTooFewNodes) {
		t.Errorf("want ErrTooFewNodes, got %v", err)
	}
	_, err = degradable.MinNodes(3, 1)
	if !errors.Is(err, degradable.ErrInfeasible) {
		t.Errorf("want ErrInfeasible, got %v", err)
	}
}

func TestDegenerateTwoNodeInstance(t *testing.T) {
	// The smallest feasible system: 0/1-degradable with two nodes.
	res, err := degradable.Agree(degradable.Config{N: 2, M: 0, U: 1}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || res.Decisions[1] != 9 {
		t.Fatalf("result = %+v", res)
	}
	// With the single receiver faulty, conditions are vacuous but the run
	// must still complete.
	res, err = degradable.Agree(degradable.Config{N: 2, M: 0, U: 1}, 9,
		degradable.Fault{Node: 1, Kind: degradable.FaultSilent})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("vacuous case failed: %+v", res)
	}
}
