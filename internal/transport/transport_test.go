package transport_test

import (
	"fmt"
	"testing"

	"degradable/internal/adversary"
	"degradable/internal/core"
	"degradable/internal/round"
	"degradable/internal/runner"
	"degradable/internal/topology"
	"degradable/internal/transport"
	"degradable/internal/types"
)

const (
	alpha types.Value = 100
	beta  types.Value = 200
)

func must(g *topology.Graph, err error) *topology.Graph {
	if err != nil {
		panic(err)
	}
	return g
}

func TestNewValidation(t *testing.T) {
	g := must(topology.Harary(4, 8))
	if _, err := transport.New(nil, 1, 2, nil, true); err == nil {
		t.Error("nil route table should error")
	}
	if _, err := transport.New(table(g, 2, 1), 2, 1, nil, true); err == nil {
		t.Error("m > u should error")
	}
	if _, err := transport.New(table(g, 1, 1), 1, 2, nil, true); err == nil {
		t.Error("a table built for m+u+1=3 should be refused for m=1,u=2")
	}
	if _, err := transport.New(table(g, 1, 2), 1, 2, nil, true); err != nil {
		t.Errorf("κ=4 graph with m+u+1=4 should work: %v", err)
	}
	// Insufficient connectivity: cycle has κ=2 < m+u+1=4; loose mode builds.
	cyc := table(must(topology.Cycle(6)), 1, 2)
	if _, err := transport.New(cyc, 1, 2, nil, true); err == nil {
		t.Error("κ=2 graph should be rejected for m=1,u=2")
	}
	if _, err := transport.New(cyc, 1, 2, nil, false); err != nil {
		t.Errorf("loose mode rejected a cycle: %v", err)
	}
}

// table builds g's route table for an m/u channel.
func table(g *topology.Graph, m, u int) *topology.Routes {
	r, err := topology.NewRoutes(g, m+u+1)
	if err != nil {
		panic(err)
	}
	return r
}

// TestHonestRunOverSparseGraph: a fault-free run over a κ = m+u+1 graph
// decides the sender's value everywhere, degrades nothing, and crosses more
// links than it sends logical messages.
func TestHonestRunOverSparseGraph(t *testing.T) {
	p := core.Params{N: 9, M: 1, U: 2}
	nodes, err := p.Nodes(alpha)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := transport.New(table(must(topology.Harary(4, 9)), p.M, p.U), p.M, p.U, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := round.Run(nodes, round.Config{Rounds: p.Depth(), Channel: ch}, round.Reference{})
	if err != nil {
		t.Fatal(err)
	}
	for id, d := range res.Decisions {
		if d != alpha {
			t.Errorf("node %d decided %v", int(id), d)
		}
	}
	deg, hops := counts(ch)
	if int(hops) <= res.Messages {
		t.Errorf("hop count %d should exceed logical messages %d on a sparse graph", hops, res.Messages)
	}
	if deg != 0 {
		t.Errorf("fault-free run degraded %d deliveries", deg)
	}
}

// TestLooseModeOnWeakGraph: a cycle (κ=2) cannot support m=1,u=2; loose
// mode runs anyway, and with no faults the protocol still succeeds (both
// paths agree).
func TestLooseModeOnWeakGraph(t *testing.T) {
	p := core.Params{N: 5, M: 1, U: 2}
	nodes, err := p.Nodes(alpha)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := transport.New(table(must(topology.Cycle(5)), p.M, p.U), p.M, p.U, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := round.Run(nodes, round.Config{Rounds: p.Depth(), Channel: ch}, round.Reference{})
	if err != nil {
		t.Fatal(err)
	}
	for id, d := range res.Decisions {
		if d != alpha {
			t.Errorf("node %d decided %v", int(id), d)
		}
	}
}

func TestDirectWireUntouched(t *testing.T) {
	g := must(topology.Complete(4))
	ch, err := transport.New(table(g, 1, 1), 1, 1, map[types.NodeID]transport.RelayCorruptor{
		2: transport.FlipTo(beta),
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := ch.Deliver(types.Message{From: 0, To: 1, Value: alpha})
	if !ok || m.Value != alpha {
		t.Errorf("direct delivery corrupted: %v %v", m.Value, ok)
	}
	if deg, hops := counts(ch); deg != 0 || hops != 1 {
		t.Errorf("direct wire counted degraded=%d hops=%d, want 0 and 1", deg, hops)
	}
}

func TestPerfectChannelUpToM(t *testing.T) {
	// Harary(4, 9): κ = 4 = m+u+1 for m=1, u=2. One faulty relay (≤ m)
	// cannot corrupt a routed message between non-adjacent nodes.
	g := must(topology.Harary(4, 9))
	// 0 and 4 are non-adjacent in H_{4,9} (offsets 1, 2 around the ring).
	if g.HasEdge(0, 4) {
		t.Fatal("test premise: 0 and 4 must be non-adjacent")
	}
	for relay := 1; relay < 9; relay++ {
		if relay == 4 {
			continue
		}
		ch, err := transport.New(table(g, 1, 2), 1, 2, map[types.NodeID]transport.RelayCorruptor{
			types.NodeID(relay): transport.FlipTo(beta),
		}, true)
		if err != nil {
			t.Fatal(err)
		}
		m, ok := ch.Deliver(types.Message{From: 0, To: 4, Value: alpha})
		if !ok || m.Value != alpha {
			t.Errorf("faulty relay %d corrupted the channel: got %v", relay, m.Value)
		}
	}
}

func TestDegradedChannelBeyondM(t *testing.T) {
	// With f = u = 2 colluding relays the channel may degrade to V_d but
	// must never deliver a forged value.
	g := must(topology.Harary(4, 9))
	seenDegraded := false
	for r1 := 1; r1 < 9; r1++ {
		for r2 := r1 + 1; r2 < 9; r2++ {
			if r1 == 4 || r2 == 4 {
				continue
			}
			ch, err := transport.New(table(g, 1, 2), 1, 2, map[types.NodeID]transport.RelayCorruptor{
				types.NodeID(r1): transport.FlipTo(beta),
				types.NodeID(r2): transport.FlipTo(beta),
			}, true)
			if err != nil {
				t.Fatal(err)
			}
			m, ok := ch.Deliver(types.Message{From: 0, To: 4, Value: alpha})
			if !ok {
				t.Fatal("routed message dropped")
			}
			if m.Value == beta {
				t.Fatalf("relays %d,%d forged a delivery", r1, r2)
			}
			if m.Value == types.Default {
				seenDegraded = true
			}
		}
	}
	if !seenDegraded {
		t.Log("no relay pair degraded the 0→4 channel (acceptable: depends on path layout)")
	}
}

func TestDropAllDegrades(t *testing.T) {
	g := must(topology.Harary(4, 9))
	// All relays on every path drop: u+? — use 2 faulty relays (f ≤ u).
	ch, err := transport.New(table(g, 1, 2), 1, 2, map[types.NodeID]transport.RelayCorruptor{
		2: transport.DropAll(),
		8: transport.DropAll(),
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := ch.Deliver(types.Message{From: 0, To: 4, Value: alpha})
	if !ok {
		t.Fatal("message dropped entirely")
	}
	if m.Value != alpha && m.Value != types.Default {
		t.Errorf("dropping relays produced forged value %v", m.Value)
	}
}

// TestAgreementOverSparseGraph is the Theorem 3 sufficiency integration
// test: m/u-degradable agreement succeeds over a graph with connectivity
// exactly m+u+1, with both faulty protocol nodes and faulty relays.
func TestAgreementOverSparseGraph(t *testing.T) {
	// N = 9 nodes, m = 1, u = 2 (N > 2m+u ✓), κ(H_{4,9}) = 4 = m+u+1.
	p := core.Params{N: 9, M: 1, U: 2}
	routes := table(must(topology.Harary(4, 9)), p.M, p.U)

	for _, tc := range []struct {
		name    string
		faulty  []types.NodeID
		senderF bool
	}{
		{"one faulty relay node", []types.NodeID{5}, false},
		{"two faulty nodes", []types.NodeID{3, 7}, false},
		{"faulty sender plus relay", []types.NodeID{0, 5}, true},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			// Faulty nodes corrupt both as protocol participants and as
			// relays.
			corrupt := make(map[types.NodeID]transport.RelayCorruptor, len(tc.faulty))
			strategies := make(map[types.NodeID]adversary.Strategy, len(tc.faulty))
			for _, id := range tc.faulty {
				corrupt[id] = transport.FlipTo(beta)
				strategies[id] = adversary.Lie{Value: beta}
			}
			ch, err := transport.New(routes, p.M, p.U, corrupt, true)
			if err != nil {
				t.Fatal(err)
			}
			in := runner.Instance{
				Protocol:    p,
				SenderValue: alpha,
				Strategies:  strategies,
				Channel:     ch,
			}
			_, verdict, err := in.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !verdict.OK {
				t.Errorf("verdict: %s violated: %s", verdict.Condition, verdict.Reason)
			}
			if !verdict.Graceful {
				t.Errorf("graceful degradation failed: %v", verdict.Classes)
			}
		})
	}
}

// TestAgreementOverSparseGraphBattery runs the full adversary battery over
// the sparse topology for f ≤ u.
func TestAgreementOverSparseGraphBattery(t *testing.T) {
	if testing.Short() {
		t.Skip("battery over sparse graph skipped in -short mode")
	}
	p := core.Params{N: 9, M: 1, U: 2}
	routes := table(must(topology.Harary(4, 9)), p.M, p.U)
	all := make([]types.NodeID, p.N)
	for i := range all {
		all[i] = types.NodeID(i)
	}
	for f := 1; f <= p.U; f++ {
		types.Subsets(all, f, func(faulty types.NodeSet) bool {
			honest := make([]types.NodeID, 0, p.N)
			for _, id := range all {
				if !faulty.Contains(id) {
					honest = append(honest, id)
				}
			}
			ctx := adversary.Context{N: p.N, Sender: 0, SenderValue: alpha, Alt: beta, Honest: honest}
			corrupt := make(map[types.NodeID]transport.RelayCorruptor)
			for _, id := range faulty.IDs() {
				corrupt[id] = transport.FlipTo(beta)
			}
			for _, sc := range adversary.Battery() {
				ch, err := transport.New(routes, p.M, p.U, corrupt, true)
				if err != nil {
					t.Fatal(err)
				}
				in := runner.Instance{
					Protocol:    p,
					SenderValue: alpha,
					Strategies:  sc.Build(faulty.IDs(), 7, ctx),
					Channel:     ch,
				}
				_, verdict, err := in.Run()
				if err != nil {
					t.Fatal(err)
				}
				if !verdict.OK {
					t.Errorf("faulty=%v scenario=%s: %s: %s", faulty, sc.Name, verdict.Condition, verdict.Reason)
				}
			}
			return !t.Failed()
		})
		if t.Failed() {
			return
		}
	}
}

func TestChannelImplementsInterface(t *testing.T) {
	var _ round.Channel = (*transport.Channel)(nil)
	_ = fmt.Sprintf
}
