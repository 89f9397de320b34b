package routednet_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"degradable/internal/adversary"
	"degradable/internal/core"
	"degradable/internal/round"
	"degradable/internal/spec"
	"degradable/internal/topology"
	"degradable/internal/transport"
	"degradable/internal/types"
)

// diffTransportVsRouted runs one seeded random configuration — a G(n,p)
// graph and a seeded draw of corrupted relays with matching protocol-level
// strategies — through the compressed transport channel and the hop-by-hop
// router. The two implementations factor the same Theorem 3 machinery
// differently (per-message path quorums vs physical token forwarding), so
// any divergence is a bug in one of them.
func diffTransportVsRouted(t *testing.T, seed int64, faultCount int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g, err := topology.Gnp(9, 0.4+rng.Float64()*0.5, rng.Int63())
	if err != nil {
		// Disconnected after every conditioning attempt: nothing to compare.
		t.Skipf("gnp: %v", err)
	}
	diffOnGraph(t, fmt.Sprintf("seed %d", seed), g, rng, faultCount)
}

// diffOnGraph draws faultCount corrupted relays from rng, runs both channels
// over g and requires identical decision vectors and delivery counts.
func diffOnGraph(t *testing.T, name string, g *topology.Graph, rng *rand.Rand, faultCount int) {
	t.Helper()
	p := core.Params{N: g.N(), M: 1, U: 2}
	if faultCount > p.U {
		faultCount = p.U
	}
	strategies := make(map[types.NodeID]adversary.Strategy)
	corrupt := make(map[types.NodeID]transport.RelayCorruptor)
	var faulty []types.NodeID
	for _, v := range rng.Perm(p.N)[:faultCount] {
		id := types.NodeID(v)
		faulty = append(faulty, id)
		switch rng.Intn(3) {
		case 0:
			strategies[id] = adversary.Lie{Value: beta}
			corrupt[id] = transport.FlipTo(beta)
		case 1:
			strategies[id] = adversary.Crash{After: 1}
			corrupt[id] = transport.DropAll()
		default:
			strategies[id] = adversary.Lie{Value: beta + 1}
			corrupt[id] = transport.FlipTo(beta + 1)
		}
	}
	nodes := func() []round.Node {
		nodes, err := p.Nodes(alpha)
		if err != nil {
			t.Fatal(err)
		}
		if err := adversary.Wrap(nodes, p.N, p.Depth(), 0, alpha, strategies); err != nil {
			t.Fatal(err)
		}
		return nodes
	}

	// Compressed: the transport channel. Both channels read one route
	// table; strictness follows the graph — below the Theorem 3 bound both
	// sides run loose, and the equivalence must hold there too (forged
	// outcomes and unroutable pairs included).
	routes := table(g, p)
	strict := routes.Fit(p.M, p.U, true) == nil
	ch, err := transport.New(routes, p.M, p.U, corrupt, strict)
	if err != nil {
		t.Fatal(err)
	}
	resA, err := round.Run(nodes(), round.Config{Rounds: p.Depth(), Channel: ch}, round.Goroutine{})
	if err != nil {
		t.Fatal(err)
	}

	// Uncompressed: hop-by-hop routing over the same graph and relay set.
	resB, _ := runRouted(t, nodes(), routes, p, corrupt, strict)

	if !reflect.DeepEqual(resA.Decisions, resB.Decisions) {
		t.Errorf("%s (strict=%v, faulty %v): decisions differ:\ncompressed %v\nhop-by-hop %v",
			name, strict, faulty, resA.Decisions, resB.Decisions)
	}
	if resA.Delivered != resB.Delivered {
		t.Errorf("%s (strict=%v, faulty %v): compressed delivered %d, hop-by-hop %d",
			name, strict, faulty, resA.Delivered, resB.Delivered)
	}
	if strict {
		// At or above κ = m+u+1 with f ≤ u the agreed decisions must also
		// satisfy the degradable spec — Theorem 3's sufficiency direction.
		verdict := spec.Check(spec.Execution{
			M: p.M, U: p.U, Sender: 0, SenderValue: alpha,
			Faulty:    types.NewNodeSet(faulty...),
			Decisions: resB.Decisions,
		})
		if !verdict.OK {
			t.Errorf("%s: strict run violated %s: %s", name, verdict.Condition, verdict.Reason)
		}
	}
}

// TestDifferentialTransportVsRouted sweeps the fuzz property over a fixed
// seed range so the differential runs on every plain `go test`, not only
// under the fuzzer. A severed graph — two disjoint cliques, the sender's
// of five and one of four — adds the pairs loose mode cannot route: both
// channels must drop those messages (§4(b)'s detectable absence), never
// deliver V_d in their place.
func TestDifferentialTransportVsRouted(t *testing.T) {
	for seed := int64(0); seed < 48; seed++ {
		diffTransportVsRouted(t, seed, int(seed%3))
	}
	severed := must(topology.NewGraph(9))
	for _, side := range [][]types.NodeID{{0, 1, 2, 3, 4}, {5, 6, 7, 8}} {
		for i, a := range side {
			for _, b := range side[i+1:] {
				if err := severed.AddEdge(a, b); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for faults := 0; faults <= 2; faults++ {
		diffOnGraph(t, fmt.Sprintf("severed f=%d", faults), severed, rand.New(rand.NewSource(int64(faults))), faults)
	}
}

// FuzzTransportVsRouted fuzzes the differential: random graphs, random
// relay corruption, both channel implementations must agree byte-for-byte
// on every node's decision.
func FuzzTransportVsRouted(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(7), uint8(1))
	f.Add(int64(42), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, faults uint8) {
		diffTransportVsRouted(t, seed, int(faults%3))
	})
}
