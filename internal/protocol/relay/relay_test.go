package relay

import (
	"fmt"
	"math/rand"
	"testing"

	"degradable/internal/eig"
	"degradable/internal/round"
	"degradable/internal/types"
	"degradable/internal/vote"
)

var majorityRule = eig.RuleFunc(func(_ int, vals []types.Value) types.Value { return vote.Majority(vals) })

func TestNewValidation(t *testing.T) {
	if _, err := New(5, 2, 0, 9, 0, majorityRule); err == nil {
		t.Error("out-of-range id should error")
	}
	if _, err := New(5, 2, 0, -1, 0, majorityRule); err == nil {
		t.Error("negative id should error")
	}
	if _, err := New(5, 2, 0, 1, 0, nil); err == nil {
		t.Error("nil rule should error")
	}
	if _, err := New(5, 9, 0, 1, 0, majorityRule); err == nil {
		t.Error("bad depth should error")
	}
}

func TestSenderOutboxRound1(t *testing.T) {
	nd, err := New(4, 2, 0, 0, 7, majorityRule)
	if err != nil {
		t.Fatal(err)
	}
	out := nd.Outbox(1)
	if len(out) != 3 {
		t.Fatalf("sender round-1 sends %d, want 3", len(out))
	}
	for _, m := range out {
		if m.Value != 7 || len(m.Path) != 1 || m.Path[0] != 0 || m.Round != 1 {
			t.Errorf("bad message %v", m)
		}
		if m.To == 0 {
			t.Error("sender messaged itself")
		}
	}
}

func TestReceiverSilentRound1(t *testing.T) {
	nd, err := New(4, 2, 0, 1, 0, majorityRule)
	if err != nil {
		t.Fatal(err)
	}
	if out := nd.Outbox(1); len(out) != 0 {
		t.Errorf("receiver sent %d messages in round 1", len(out))
	}
}

func TestRelayRound2(t *testing.T) {
	nd, err := New(4, 2, 0, 1, 0, majorityRule)
	if err != nil {
		t.Fatal(err)
	}
	// Deliver the sender's value, then check the relay.
	nd.Step(1, nil)
	out := nd.Step(2, []types.Message{
		{From: 0, Round: 1, Path: types.Path{0}, Value: 7},
	})
	if len(out) != 3 {
		t.Fatalf("relay count = %d, want 3", len(out))
	}
	for _, m := range out {
		if m.Value != 7 {
			t.Errorf("relayed %v, want 7", m.Value)
		}
		if m.Path.Key() != (types.Path{0, 1}).Key() {
			t.Errorf("relay path = %s", m.Path)
		}
	}
}

func TestRelayAbsentClaimAsDefault(t *testing.T) {
	nd, err := New(4, 2, 0, 1, 0, majorityRule)
	if err != nil {
		t.Fatal(err)
	}
	nd.Step(1, nil)
	out := nd.Step(2, nil) // sender's message never arrived
	if len(out) != 3 {
		t.Fatalf("relay count = %d, want 3", len(out))
	}
	for _, m := range out {
		if m.Value != types.Default {
			t.Errorf("absent claim relayed as %v, want V_d", m.Value)
		}
	}
}

func TestAbsorbRejectsMalformed(t *testing.T) {
	nd, err := New(5, 3, 0, 1, 0, majorityRule)
	if err != nil {
		t.Fatal(err)
	}
	nd.Step(1, nil)
	bad := []types.Message{
		{From: 2, Round: 1, Path: types.Path{0}, Value: 9},    // wrong last: path last 0 != from 2
		{From: 2, Round: 1, Path: types.Path{0, 2}, Value: 9}, // wrong length for round 2
		{From: 2, Round: 1, Path: types.Path{1}, Value: 9},    // wrong root (sender is 0)
		{From: 2, Round: 1, Path: types.Path{0, 1}, Value: 9}, // contains self
		{From: 2, Round: 1, Path: types.Path{}, Value: 9},     // empty path
	}
	nd.Step(2, bad)
	if nd.Tree().Stored() != 0 {
		t.Errorf("malformed messages were stored: %d", nd.Tree().Stored())
	}
	// A well-formed one is stored.
	nd2, _ := New(5, 3, 0, 1, 0, majorityRule)
	nd2.Step(1, nil)
	nd2.Step(2, []types.Message{{From: 0, Round: 1, Path: types.Path{0}, Value: 9}})
	if nd2.Tree().Stored() != 1 {
		t.Error("well-formed message was not stored")
	}
}

func TestDecideBeforeFinish(t *testing.T) {
	nd, err := New(4, 2, 0, 1, 0, majorityRule)
	if err != nil {
		t.Fatal(err)
	}
	if nd.Decide() != types.Default {
		t.Error("undeciced node should report V_d")
	}
}

func TestSenderDecidesOwnValue(t *testing.T) {
	nd, err := New(4, 2, 0, 0, 42, majorityRule)
	if err != nil {
		t.Fatal(err)
	}
	nd.Finish(nil)
	if nd.Decide() != 42 {
		t.Errorf("sender decided %v", nd.Decide())
	}
}

// Full OM(1)-style run through the engine with four honest nodes.
func TestEndToEndHonest(t *testing.T) {
	const n = 4
	nodes := make([]round.Node, n)
	for i := 0; i < n; i++ {
		nd, err := New(n, 2, 0, types.NodeID(i), 5, majorityRule)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
	}
	res, err := round.Run(nodes, round.Config{Rounds: 2}, round.Reference{})
	if err != nil {
		t.Fatal(err)
	}
	for id, d := range res.Decisions {
		if d != 5 {
			t.Errorf("node %d decided %v", int(id), d)
		}
	}
}

// TestOutboxReadsEveryClaim holds the relay plan's read order to the
// template's: on a tree holding random values at most claims, every relay
// round's message carries the value stored at its path's parent (V_d where
// none was), on both sides of the NodeSet range the plan's member sets
// stop at.
func TestOutboxReadsEveryClaim(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, shape := range []struct{ n, depth int }{{4, 3}, {7, 3}, {9, 4}, {70, 3}} {
		for _, id := range []types.NodeID{1, types.NodeID(shape.n - 1)} {
			nd, err := New(shape.n, shape.depth, 0, id, 0, majorityRule)
			if err != nil {
				t.Fatal(err)
			}
			for l := 1; l < shape.depth; l++ {
				nd.tree.ForEachPath(l, id, func(p types.Path) bool {
					if rng.Intn(5) > 0 {
						_ = nd.tree.Set(p, types.Value(rng.Intn(3)))
					}
					return true
				})
			}
			for r := 2; r <= shape.depth; r++ {
				out := nd.Outbox(r)
				if want := nd.LaneClaims(r) * (shape.n - 1); len(out) != want {
					t.Fatalf("n=%d id=%d round %d: %d sends, want %d", shape.n, id, r, len(out), want)
				}
				for _, m := range out {
					if want := nd.tree.Get(m.Path[:r-1]); m.Value != want {
						t.Fatalf("n=%d id=%d round %d: %s carries %s, the tree holds %s",
							shape.n, id, r, fmt.Sprint(m.Path), m.Value, want)
					}
				}
			}
		}
	}
}
