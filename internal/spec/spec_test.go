package spec

import (
	"strings"
	"testing"

	"degradable/internal/types"
)

// exec builds a 1/2-degradable execution over N=5 nodes (sender 0) tersely.
func exec(m, u int, faulty types.NodeSet, senderVal types.Value, decisions map[types.NodeID]types.Value) Execution {
	return Execution{
		M: m, U: u,
		Sender:      0,
		SenderValue: senderVal,
		Faulty:      faulty,
		Decisions:   decisions,
	}
}

func TestRegimeString(t *testing.T) {
	if RegimeClassic.String() != "classic" || RegimeDegraded.String() != "degraded" ||
		RegimeBeyond.String() != "beyond-u" {
		t.Error("unexpected Regime strings")
	}
	if !strings.Contains(Regime(9).String(), "9") {
		t.Error("unknown regime should render its number")
	}
}

func TestD1Satisfied(t *testing.T) {
	v := Check(exec(1, 2, types.NewNodeSet(3), 7, map[types.NodeID]types.Value{
		1: 7, 2: 7, 4: 7,
	}))
	if v.Condition != "D.1" || !v.OK || v.Regime != RegimeClassic {
		t.Errorf("verdict = %+v", v)
	}
	if !v.Graceful {
		t.Error("graceful degradation should hold")
	}
}

func TestD1Violated(t *testing.T) {
	v := Check(exec(1, 2, types.NewNodeSet(3), 7, map[types.NodeID]types.Value{
		1: 7, 2: 9, 4: 7,
	}))
	if v.Condition != "D.1" || v.OK {
		t.Errorf("verdict = %+v", v)
	}
	if !strings.Contains(v.Reason, "D.1") {
		t.Errorf("reason = %q", v.Reason)
	}
}

func TestD1FaultyDecisionsIgnored(t *testing.T) {
	// The faulty node's recorded decision must not trip the check.
	v := Check(exec(1, 2, types.NewNodeSet(3), 7, map[types.NodeID]types.Value{
		1: 7, 2: 7, 3: 999, 4: 7,
	}))
	if !v.OK {
		t.Errorf("faulty node's decision counted: %+v", v)
	}
}

func TestD2SatisfiedAndViolated(t *testing.T) {
	// Sender faulty, f=1 ≤ m: all fault-free receivers identical.
	ok := Check(exec(1, 2, types.NewNodeSet(0), 7, map[types.NodeID]types.Value{
		1: 3, 2: 3, 3: 3, 4: 3,
	}))
	if ok.Condition != "D.2" || !ok.OK {
		t.Errorf("verdict = %+v", ok)
	}
	// Agreement on V_d is also fine for D.2.
	okDefault := Check(exec(1, 2, types.NewNodeSet(0), 7, map[types.NodeID]types.Value{
		1: types.Default, 2: types.Default, 3: types.Default, 4: types.Default,
	}))
	if !okDefault.OK {
		t.Errorf("verdict = %+v", okDefault)
	}
	bad := Check(exec(1, 2, types.NewNodeSet(0), 7, map[types.NodeID]types.Value{
		1: 3, 2: 4, 3: 3, 4: 3,
	}))
	if bad.Condition != "D.2" || bad.OK {
		t.Errorf("verdict = %+v", bad)
	}
}

func TestD3(t *testing.T) {
	// f=2 > m=1, sender fault-free: receivers may split {sender value, V_d}.
	ok := Check(exec(1, 2, types.NewNodeSet(3, 4), 7, map[types.NodeID]types.Value{
		1: 7, 2: types.Default,
	}))
	if ok.Condition != "D.3" || !ok.OK || ok.Regime != RegimeDegraded {
		t.Errorf("verdict = %+v", ok)
	}
	// A wrong non-default value violates D.3.
	bad := Check(exec(1, 2, types.NewNodeSet(3, 4), 7, map[types.NodeID]types.Value{
		1: 7, 2: 9,
	}))
	if bad.OK {
		t.Errorf("verdict = %+v", bad)
	}
	// All-default is allowed (one class).
	allDefault := Check(exec(1, 2, types.NewNodeSet(3, 4), 7, map[types.NodeID]types.Value{
		1: types.Default, 2: types.Default,
	}))
	if !allDefault.OK {
		t.Errorf("verdict = %+v", allDefault)
	}
}

func TestD4(t *testing.T) {
	// Sender faulty, f=2 > m=1: one non-default class plus V_d allowed.
	ok := Check(exec(1, 2, types.NewNodeSet(0, 3), 7, map[types.NodeID]types.Value{
		1: 5, 2: types.Default, 4: 5,
	}))
	if ok.Condition != "D.4" || !ok.OK {
		t.Errorf("verdict = %+v", ok)
	}
	// Two distinct non-default values violate D.4.
	bad := Check(exec(1, 2, types.NewNodeSet(0, 3), 7, map[types.NodeID]types.Value{
		1: 5, 2: 6, 4: 5,
	}))
	if bad.OK {
		t.Errorf("verdict = %+v", bad)
	}
	if !strings.Contains(bad.Reason, "D.4") {
		t.Errorf("reason = %q", bad.Reason)
	}
}

func TestBeyondU(t *testing.T) {
	v := Check(exec(1, 2, types.NewNodeSet(1, 2, 3), 7, map[types.NodeID]types.Value{
		4: 42,
	}))
	if v.Regime != RegimeBeyond || !v.OK || v.Condition != "none" {
		t.Errorf("verdict = %+v", v)
	}
}

func TestGracefulDegradation(t *testing.T) {
	// m=1: need 2 fault-free nodes on one value. Sender (value 7) + node 1.
	v := Check(exec(1, 2, types.NewNodeSet(3, 4), 7, map[types.NodeID]types.Value{
		1: 7, 2: types.Default,
	}))
	if !v.Graceful {
		t.Error("sender + one receiver on 7 should be graceful for m=1")
	}
	// Split 1/1 with no second vote for either value: not graceful.
	// (m=1 needs m+1 = 2; sender's value 9 doesn't match any receiver.)
	v2 := Check(Execution{
		M: 1, U: 2, Sender: 0, SenderValue: 9,
		Faulty: types.NewNodeSet(3, 4),
		Decisions: map[types.NodeID]types.Value{
			1: 5, 2: types.Default,
		},
	})
	if v2.Graceful {
		t.Error("no value held by 2 fault-free nodes; graceful should be false")
	}
	// Two receivers on V_d are enough even if neither matches the sender.
	v3 := Check(Execution{
		M: 1, U: 2, Sender: 0, SenderValue: 9,
		Faulty: types.NewNodeSet(3, 4),
		Decisions: map[types.NodeID]types.Value{
			1: types.Default, 2: types.Default,
		},
	})
	if !v3.Graceful {
		t.Error("two fault-free receivers on V_d should be graceful")
	}
	for i, tc := range []struct {
		v      Verdict
		margin int
	}{{v, 0}, {v2, -1}, {v3, 0}} {
		if tc.v.Margin != tc.margin || (tc.v.Margin >= 0) != tc.v.Graceful {
			t.Errorf("case %d: margin %d graceful %v, want margin %d ⟺ graceful", i, tc.v.Margin, tc.v.Graceful, tc.margin)
		}
	}
}

// TestSelect pins the condition choice at the regime edges f = m, m+1, u
// and u+1, with a fault-free and a faulty sender.
func TestSelect(t *testing.T) {
	const m, u = 1, 3
	for _, tc := range []struct {
		f            int
		senderFaulty bool
		regime       Regime
		condition    string
	}{
		{m, false, RegimeClassic, "D.1"},
		{m, true, RegimeClassic, "D.2"},
		{m + 1, false, RegimeDegraded, "D.3"},
		{m + 1, true, RegimeDegraded, "D.4"},
		{u, false, RegimeDegraded, "D.3"},
		{u, true, RegimeDegraded, "D.4"},
		{u + 1, false, RegimeBeyond, "none"},
		{u + 1, true, RegimeBeyond, "none"},
	} {
		r, c := Select(m, u, tc.f, tc.senderFaulty)
		if r != tc.regime || c != tc.condition {
			t.Errorf("Select(%d, %d, %d, %v) = %v %s, want %v %s", m, u, tc.f, tc.senderFaulty, r, c, tc.regime, tc.condition)
		}
	}
}

func TestSenderDecisionIgnored(t *testing.T) {
	// A recorded decision for the sender must not be counted as a receiver.
	v := Check(exec(1, 2, types.NewNodeSet(4), 7, map[types.NodeID]types.Value{
		0: 7, 1: 7, 2: 7, 3: 7,
	}))
	if got := v.Classes[7]; got != 3 {
		t.Errorf("Classes[7] = %d, want 3 (sender excluded)", got)
	}
}

func TestExecutionHelpers(t *testing.T) {
	e := exec(1, 2, types.NewNodeSet(0, 2), 7, nil)
	if e.F() != 2 {
		t.Errorf("F = %d", e.F())
	}
	if !e.SenderFaulty() {
		t.Error("sender should be faulty")
	}
}
