package routednet_test

import (
	"reflect"
	"testing"

	"degradable/internal/adversary"
	"degradable/internal/core"
	"degradable/internal/round"
	"degradable/internal/routednet"
	"degradable/internal/spec"
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

// table builds g's route table for p's m/u channel.
func table(g *topology.Graph, p core.Params) *topology.Routes {
	r, err := topology.NewRoutes(g, p.M+p.U+1)
	if err != nil {
		panic(err)
	}
	return r
}

// runRouted drives nodes over a hop-by-hop Channel on r under the reference
// schedule and returns the run and the channel.
func runRouted(t *testing.T, nodes []round.Node, r *topology.Routes, p core.Params,
	faulty map[types.NodeID]transport.RelayCorruptor, strict bool) (*round.Result, *routednet.Channel) {
	t.Helper()
	ch, err := routednet.NewChannel(r, p.M, p.U, faulty, strict)
	if err != nil {
		t.Fatal(err)
	}
	res, err := round.Run(nodes, round.Config{Rounds: p.Depth(), Channel: ch}, round.Reference{})
	if err != nil {
		t.Fatal(err)
	}
	return res, ch
}

func TestValidation(t *testing.T) {
	g := must(topology.Harary(4, 9))
	if _, err := routednet.NewChannel(nil, 1, 2, nil, true); err == nil {
		t.Error("nil route table should error")
	}
	if _, err := routednet.NewChannel(table(g, core.Params{M: 2, U: 1}), 2, 1, nil, true); err == nil {
		t.Error("m > u should error")
	}
	// Strict mode rejects insufficient connectivity; loose mode builds.
	cyc := table(must(topology.Cycle(9)), core.Params{M: 1, U: 2})
	if _, err := routednet.NewChannel(cyc, 1, 2, nil, true); err == nil {
		t.Error("strict mode should reject a 2-connected cycle for m+u+1=4")
	}
	if _, err := routednet.NewChannel(cyc, 1, 2, nil, false); err != nil {
		t.Errorf("loose mode rejected a cycle: %v", err)
	}
}

func TestHonestRunOverSparseGraph(t *testing.T) {
	p := core.Params{N: 9, M: 1, U: 2}
	nodes, err := p.Nodes(alpha)
	if err != nil {
		t.Fatal(err)
	}
	res, ch := runRouted(t, nodes, table(must(topology.Harary(4, 9)), p), p, nil, true)
	for id, d := range res.Decisions {
		if d != alpha {
			t.Errorf("node %d decided %v", int(id), d)
		}
	}
	snap := ch.Stats()
	if hops := int(snap.Counter(routednet.CounterNames[routednet.CounterHops])); hops <= res.Messages {
		t.Errorf("hop count %d should exceed logical messages %d on a sparse graph", hops, res.Messages)
	}
	if deg := snap.Counter(routednet.CounterNames[routednet.CounterDegraded]); deg != 0 {
		t.Errorf("fault-free run degraded %d deliveries", deg)
	}
}

// The headline: hop-by-hop forwarding and the compressed transport channel
// produce identical decisions for deterministic relay corruption, across
// fault placements and protocol-level strategies.
func TestEquivalenceWithCompressedTransport(t *testing.T) {
	p := core.Params{N: 9, M: 1, U: 2}
	routes := table(must(topology.Harary(4, 9)), p)
	cases := []struct {
		name       string
		faulty     []types.NodeID
		strategyOf func(types.NodeID) adversary.Strategy
		corruptOf  func(types.NodeID) transport.RelayCorruptor
	}{
		{
			name:       "two liars flipping relays",
			faulty:     []types.NodeID{3, 7},
			strategyOf: func(types.NodeID) adversary.Strategy { return adversary.Lie{Value: beta} },
			corruptOf:  func(types.NodeID) transport.RelayCorruptor { return transport.FlipTo(beta) },
		},
		{
			name:   "faulty sender plus dropper",
			faulty: []types.NodeID{0, 5},
			strategyOf: func(id types.NodeID) adversary.Strategy {
				if id == 0 {
					return adversary.TwoFaced{A: types.NewNodeSet(1, 2, 3, 4), ValueA: alpha, ValueB: beta}
				}
				return adversary.Crash{After: 1}
			},
			corruptOf: func(id types.NodeID) transport.RelayCorruptor {
				if id == 0 {
					return transport.FlipTo(beta)
				}
				return transport.DropAll()
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			strategies := make(map[types.NodeID]adversary.Strategy)
			corrupt := make(map[types.NodeID]transport.RelayCorruptor)
			for _, id := range tc.faulty {
				strategies[id] = tc.strategyOf(id)
				corrupt[id] = tc.corruptOf(id)
			}

			// Compressed: the transport channel.
			nodesA, err := p.Nodes(alpha)
			if err != nil {
				t.Fatal(err)
			}
			if err := adversary.Wrap(nodesA, p.N, p.Depth(), 0, alpha, strategies); err != nil {
				t.Fatal(err)
			}
			ch, err := transport.New(routes, p.M, p.U, corrupt, true)
			if err != nil {
				t.Fatal(err)
			}
			resA, err := round.Run(nodesA, round.Config{Rounds: p.Depth(), Channel: ch}, round.Goroutine{})
			if err != nil {
				t.Fatal(err)
			}

			// Uncompressed: hop-by-hop.
			nodesB, err := p.Nodes(alpha)
			if err != nil {
				t.Fatal(err)
			}
			if err := adversary.Wrap(nodesB, p.N, p.Depth(), 0, alpha, strategies); err != nil {
				t.Fatal(err)
			}
			resB, _ := runRouted(t, nodesB, routes, p, corrupt, true)

			if !reflect.DeepEqual(resA.Decisions, resB.Decisions) {
				t.Errorf("decisions differ:\ncompressed  %v\nhop-by-hop %v", resA.Decisions, resB.Decisions)
			}
			// And both satisfy the spec.
			verdict := spec.Check(spec.Execution{
				M: p.M, U: p.U, Sender: 0, SenderValue: alpha,
				Faulty:    types.NewNodeSet(tc.faulty...),
				Decisions: resB.Decisions,
			})
			if !verdict.OK {
				t.Errorf("hop-by-hop run violated %s: %s", verdict.Condition, verdict.Reason)
			}
		})
	}
}

func TestLooseModeOnWeakGraph(t *testing.T) {
	// A cycle (κ=2) cannot support m=1,u=2; loose mode runs anyway, and
	// with no faults the protocol still succeeds (both paths agree).
	p := core.Params{N: 5, M: 1, U: 2}
	nodes, err := p.Nodes(alpha)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := runRouted(t, nodes, table(must(topology.Cycle(5)), p), p, nil, false)
	for id, d := range res.Decisions {
		if d != alpha {
			t.Errorf("node %d decided %v", int(id), d)
		}
	}
}
