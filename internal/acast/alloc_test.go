package acast

import (
	"testing"

	"degradable/internal/types"
)

// allocsPerStep prepares a batch of identical nodes and reports the
// allocations of one measured delivery on each. A delivery that crosses a
// threshold can only be made once per node, so every run gets its own node,
// built before the measurement starts.
func allocsPerStep(prepare func() (step func())) float64 {
	const runs = 50
	steps := make([]func(), runs+1) // AllocsPerRun makes one warm-up call
	for i := range steps {
		steps[i] = prepare()
	}
	i := 0
	return testing.AllocsPerRun(runs, func() {
		steps[i]()
		i++
	})
}

// TestNodeOnDeliverAllocsPerRun: a warmed A-Cast node — one that has sent a
// broadcast and tallied a vote of each kind, so its outbox and tallies have
// their capacity — allocates nothing per delivery, whichever threshold the
// delivery crosses.
func TestNodeOnDeliverAllocsPerRun(t *testing.T) {
	p := Params{N: 7, F: 2} // echo quorum 5, amplify 3, certificate 5
	path := types.Path{0}
	msg := func(from types.NodeID, kind int) types.Message {
		return types.Message{From: from, To: 1, Round: kind, Path: path, Value: 9}
	}
	// warm: node 1 has echoed broadcaster 0's init (its own echo counted)
	// and holds one ready, then takes echoes and readies from the senders
	// given.
	warm := func(echoes, readies []types.NodeID) *Node {
		nd := NewNode(Config{ID: 1, Params: p})
		nd.OnDeliver(msg(0, KindInit))
		nd.OnDeliver(msg(2, KindReady))
		for _, s := range echoes {
			nd.OnDeliver(msg(s, KindEcho))
		}
		for _, s := range readies {
			nd.OnDeliver(msg(s, KindReady))
		}
		return nd
	}
	for _, tc := range []struct {
		name            string
		echoes, readies []types.NodeID
		deliver         types.Message
		sends           int
		delivered       bool
	}{
		{"echo below quorum", []types.NodeID{0, 2}, nil, msg(3, KindEcho), 0, false},
		{"echo that trips ready", []types.NodeID{0, 2, 3}, nil, msg(4, KindEcho), p.N - 1, false},
		{"ready that certifies", []types.NodeID{0, 2, 3, 4}, []types.NodeID{3, 4}, msg(5, KindReady), 0, true},
	} {
		var last *Node
		var sends int
		allocs := allocsPerStep(func() func() {
			nd := warm(tc.echoes, tc.readies)
			return func() {
				sends = len(nd.OnDeliver(tc.deliver))
				last = nd
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per OnDeliver, want 0", tc.name, allocs)
		}
		// The measured delivery must have done what the case is named for.
		if sends != tc.sends {
			t.Errorf("%s: %d sends, want %d", tc.name, sends, tc.sends)
		}
		if _, ok := last.Decided(); ok != tc.delivered {
			t.Errorf("%s: decided=%v, want %v", tc.name, ok, tc.delivered)
		}
	}
}

// TestABAOnDeliverAllocsPerRun: a started ABA node allocates nothing per
// delivery inside rounds it has already touched — a BVAL it relays at f+1, and
// an AUX that completes n−f votes, tosses the coin and opens the next round.
func TestABAOnDeliverAllocsPerRun(t *testing.T) {
	p := Params{N: 7, F: 2} // relay at 3 BVALs, bin_values at 5, advance at 5 AUX voters
	msg := func(from types.NodeID, r, kind int, v types.Value) types.Message {
		return types.Message{From: from, To: 0, Round: r<<kindBits | kind, Value: v}
	}
	for _, tc := range []struct {
		name    string
		prepare func(a *ABA)
		deliver types.Message
		sends   int
		round   int
	}{
		{
			name: "BVAL that relays",
			prepare: func(a *ABA) {
				a.OnDeliver(msg(1, 1, KindBval, 1))
				a.OnDeliver(msg(2, 1, KindBval, 1))
			},
			deliver: msg(3, 1, KindBval, 1), sends: p.N - 1, round: 1,
		},
		{
			name: "AUX that advances",
			prepare: func(a *ABA) {
				for s := types.NodeID(1); s <= 4; s++ { // with its own: 5 BVAL(0) → AUX(0) sent
					a.OnDeliver(msg(s, 1, KindBval, 0))
				}
				a.OnDeliver(msg(1, 2, KindBval, 0)) // a peer already in round 2 touches it
				for s := types.NodeID(1); s <= 3; s++ {
					a.OnDeliver(msg(s, 1, KindAux, 0))
				}
			},
			deliver: msg(4, 1, KindAux, 0), sends: p.N - 1, round: 2,
		},
	} {
		var last *ABA
		var sends int
		allocs := allocsPerStep(func() func() {
			a := NewABA(0, p, 0, 7)
			a.Start()
			tc.prepare(a)
			return func() {
				sends = len(a.OnDeliver(tc.deliver))
				last = a
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per OnDeliver, want 0", tc.name, allocs)
		}
		if sends != tc.sends || last.round != tc.round {
			t.Errorf("%s: %d sends and round %d, want %d and %d", tc.name, sends, last.round, tc.sends, tc.round)
		}
	}
}
