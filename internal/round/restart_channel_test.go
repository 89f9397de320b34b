package round_test

import (
	"reflect"
	"testing"

	"degradable/internal/adversary"
	"degradable/internal/chaos"
	"degradable/internal/core"
	"degradable/internal/protocol/relay"
	"degradable/internal/round"
	"degradable/internal/types"
)

// TestRestartOnChannelMatchesFresh restarts one engine onto a new channel
// per run — none, a duplicating and dropping injector chain, PerfectChannel,
// a sparse topology channel, none again — and requires every run to equal a
// freshly built engine's on the same channel: decisions, message, delivery
// and byte accounting, and per-round counts. It also checks the lane is
// re-armed each time: a receiver sends its relays by slab exactly when the
// channel lets the lane run.
func TestRestartOnChannelMatchesFresh(t *testing.T) {
	p := core.Params{N: 9, M: 1, U: 2} // harary:4:9 carries κ = 4 = m+u+1
	faults := []adversary.FaultSpec{{Node: 3, Kind: adversary.KindLie, Value: 99}}
	var faulty types.NodeSet
	faulty = faulty.Add(3)
	steps := []struct {
		name string
		lane bool
		ch   func(t *testing.T) round.Channel
	}{
		{"nil", true, func(*testing.T) round.Channel { return nil }},
		{"injectors", false, func(t *testing.T) round.Channel {
			var counters chaos.Counters
			ch, err := chaos.NewChannel([]chaos.Injector{
				{Kind: chaos.Duplicate, P: 0.3},
				{Kind: chaos.Drop, P: 0.1},
			}, faulty, 7, &counters)
			if err != nil {
				t.Fatal(err)
			}
			return ch
		}},
		{"perfect", true, func(*testing.T) round.Channel { return round.PerfectChannel{} }},
		{"topology", false, func(t *testing.T) round.Channel {
			ch, err := (&chaos.TopoSpec{Graph: "harary:4:9"}).NewChannel(p.N, p.M, p.U, faults, faulty)
			if err != nil {
				t.Fatal(err)
			}
			return ch
		}},
		{"nil again", true, func(*testing.T) round.Channel { return nil }},
	}

	// complement resets (or builds) the honest nodes with input 42 and arms
	// node 3's lie.
	complement := func(honest []*relay.Node) []round.Node {
		nodes := make([]round.Node, p.N)
		for i, nd := range honest {
			nd.Reset(42)
			nodes[i] = nd
		}
		bn, err := adversary.NewNode(p.N, p.Depth(), p.Sender, 3, 42, adversary.Lie{Value: 99})
		if err != nil {
			t.Fatal(err)
		}
		nodes[3] = bn
		return nodes
	}
	newHonest := func() []*relay.Node {
		honest := make([]*relay.Node, p.N)
		for i := range honest {
			nd, err := p.NewNode(types.NodeID(i), 42)
			if err != nil {
				t.Fatal(err)
			}
			honest[i] = nd
		}
		return honest
	}

	warm := newHonest()
	var eng *round.Engine
	for k, step := range steps {
		fresh, err := round.NewEngine(complement(newHonest()), round.Config{Rounds: p.Depth(), Channel: step.ch(t)})
		if err != nil {
			t.Fatal(err)
		}
		if err := (round.Reference{}).Drive(fresh); err != nil {
			t.Fatal(err)
		}
		want := fresh.Finalize()

		nodes := complement(warm)
		if k == 0 {
			eng, err = round.NewEngine(nodes, round.Config{Rounds: p.Depth(), Channel: step.ch(t)})
		} else {
			err = eng.RestartOn(nodes, step.ch(t))
		}
		if err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if err := (round.Reference{}).Drive(eng); err != nil {
			t.Fatal(err)
		}
		got := eng.Finalize()
		if !reflect.DeepEqual(got.Decisions, want.Decisions) {
			t.Errorf("%s: decisions %v, want %v", step.name, got.Decisions, want.Decisions)
		}
		if got.Messages != want.Messages || got.Delivered != want.Delivered || got.Bytes != want.Bytes {
			t.Errorf("%s: accounting (%d,%d,%d), want (%d,%d,%d)", step.name,
				got.Messages, got.Delivered, got.Bytes, want.Messages, want.Delivered, want.Bytes)
		}
		if !reflect.DeepEqual(got.PerRound, want.PerRound) {
			t.Errorf("%s: per-round %v, want %v", step.name, got.PerRound, want.PerRound)
		}
		// Receiver 1's one round-2 relay goes to all 8 other nodes by slab
		// when the lane is on, node 3, the wrapped liar, included; with the
		// lane off all 8 recipients get a message.
		want1 := p.N - 1
		if step.lane {
			want1 = 0
		}
		if got, want := len(warm[1].Outbox(2)), want1; got != want {
			t.Errorf("%s: receiver's round-2 outbox has %d sends, want %d (lane on: %v)",
				step.name, got, want, step.lane)
		}
	}
}
