package transport_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"degradable/internal/adversary"
	"degradable/internal/core"
	"degradable/internal/obs"
	"degradable/internal/round"
	"degradable/internal/spec"
	"degradable/internal/topology"
	"degradable/internal/transport"
	"degradable/internal/types"
	"degradable/internal/vote"
)

// Names of the twin's obs counters, in index order.
const (
	twinHops = iota
	twinDegraded
)

var twinCounterNames = []string{"routed_hops_total", "routed_degraded_total"}

// twin is the hop-by-hop reference for transport.Channel: one token per
// vertex-disjoint path per logical message, every token advanced one link
// per step in round-robin order, Byzantine relays corrupting or dropping
// copies in flight, then VOTE(m+1, copies) at the destination. It counts a
// hop every time a token crosses a link (a direct wire is one hop). The
// production channel folds the whole traversal into one walk per path; the
// two must agree on every delivery and on both counters whenever the relay
// corruptors are pure functions of (relay, message, value).
type twin struct {
	routes   *topology.Routes
	m        int
	faulty   map[types.NodeID]transport.RelayCorruptor
	counters *obs.CounterSet
}

var _ round.Channel = (*twin)(nil)

// newTwin builds the hop-by-hop reference over r, refusing exactly what
// transport.New refuses.
func newTwin(r *topology.Routes, m, u int, faulty map[types.NodeID]transport.RelayCorruptor, strict bool) (*twin, error) {
	if err := r.Fit(m, u, strict); err != nil {
		return nil, err
	}
	return &twin{routes: r, m: m, faulty: faulty, counters: obs.NewCounterSet(twinCounterNames...)}, nil
}

// token is one in-flight copy of a logical message.
type token struct {
	route []types.NodeID
	pos   int // index of the node currently holding the copy
	value types.Value
	orig  types.Message
	dead  bool
}

// Deliver implements round.Channel: adjacent pairs use their direct wire
// (one hop, never degraded); everything else is forwarded token by token
// over the precomputed disjoint routes and accepted by VOTE(m+1, copies).
// An unroutable message (loose mode on a severed graph) is dropped.
func (c *twin) Deliver(m types.Message) (types.Message, bool) {
	if c.routes.Adjacent(m.From, m.To) {
		c.counters.Inc(twinHops)
		return m, true
	}
	ps := c.routes.Paths(m.From, m.To)
	if len(ps) == 0 {
		return types.Message{}, false
	}
	tokens := make([]*token, 0, len(ps))
	for _, route := range ps {
		tokens = append(tokens, &token{route: route, value: m.Value, orig: m})
	}
	inFlight := len(tokens)
	for inFlight > 0 {
		inFlight = 0
		for _, tk := range tokens {
			if tk.dead || tk.pos == len(tk.route)-1 {
				continue
			}
			// Advance one hop.
			tk.pos++
			c.counters.Inc(twinHops)
			hop := tk.route[tk.pos]
			if tk.pos < len(tk.route)-1 {
				if corrupt, bad := c.faulty[hop]; bad {
					v, keep := corrupt(hop, tk.orig, tk.value)
					if !keep {
						tk.dead = true
						continue
					}
					tk.value = v
				}
				inFlight++
			}
		}
	}
	// Acceptance at the destination.
	copies := make([]types.Value, 0, len(tokens))
	for _, tk := range tokens {
		if !tk.dead {
			copies = append(copies, tk.value)
		}
	}
	accepted := vote.Vote(c.m+1, copies)
	if accepted != m.Value {
		c.counters.Inc(twinDegraded)
	}
	m.Value = accepted
	return m, true
}

// counts returns a channel's (degraded, hops) totals.
func counts(ch *transport.Channel) (degraded, hops uint64) {
	snap := ch.Stats()
	return snap.Counter(transport.CounterNames[transport.CounterDegraded]),
		snap.Counter(transport.CounterNames[transport.CounterHops])
}

// twinCounts returns the twin's (degraded, hops) totals.
func twinCounts(tw *twin) (degraded, hops uint64) {
	return tw.counters.Get(twinDegraded), tw.counters.Get(twinHops)
}

// pair builds the production channel and its twin over one route table and
// relay set.
func pair(t *testing.T, r *topology.Routes, p core.Params, faulty map[types.NodeID]transport.RelayCorruptor, strict bool) (*transport.Channel, *twin) {
	t.Helper()
	ch, err := transport.New(r, p.M, p.U, faulty, strict)
	if err != nil {
		t.Fatal(err)
	}
	tw, err := newTwin(r, p.M, p.U, faulty, strict)
	if err != nil {
		t.Fatal(err)
	}
	return ch, tw
}

// runBoth drives two identically built node sets, one over the channel (on
// the goroutine driver) and one over the twin (on the reference driver),
// and requires identical decisions, deliveries, and degraded and hop counts.
// It returns the twin's run.
func runBoth(t *testing.T, name string, nodes func() []round.Node, ch *transport.Channel, tw *twin, depth int) *round.Result {
	t.Helper()
	resA, err := round.Run(nodes(), round.Config{Rounds: depth, Channel: ch}, round.Goroutine{})
	if err != nil {
		t.Fatal(err)
	}
	resB, err := round.Run(nodes(), round.Config{Rounds: depth, Channel: tw}, round.Reference{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resA.Decisions, resB.Decisions) {
		t.Errorf("%s: decisions differ:\nchannel    %v\nhop-by-hop %v", name, resA.Decisions, resB.Decisions)
	}
	if resA.Delivered != resB.Delivered {
		t.Errorf("%s: channel delivered %d, hop-by-hop %d", name, resA.Delivered, resB.Delivered)
	}
	degA, hopsA := counts(ch)
	degB, hopsB := twinCounts(tw)
	if degA != degB || hopsA != hopsB {
		t.Errorf("%s: channel degraded=%d hops=%d, hop-by-hop degraded=%d hops=%d",
			name, degA, hopsA, degB, hopsB)
	}
	return resB
}

// diffTransportVsRouted runs one seeded random configuration — a G(n,p)
// graph and a seeded draw of corrupted relays with matching protocol-level
// strategies — through the channel and its hop-by-hop twin.
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

// diffOnGraph draws faultCount corrupted relays from rng, runs both sides
// over g, and requires identical decision vectors, delivery counts and
// counters.
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

	// Strictness follows the graph: below the Theorem 3 bound both sides run
	// loose, and the equivalence must hold there too (forged outcomes and
	// unroutable pairs included).
	routes := table(g, p.M, p.U)
	strict := routes.Fit(p.M, p.U, true) == nil
	ch, tw := pair(t, routes, p, corrupt, strict)
	res := runBoth(t, fmt.Sprintf("%s (strict=%v, faulty %v)", name, strict, faulty), nodes, ch, tw, p.Depth())
	if strict {
		// At or above κ = m+u+1 with f ≤ u the agreed decisions must also
		// satisfy the degradable spec — Theorem 3's sufficiency direction.
		verdict := spec.Check(spec.Execution{
			M: p.M, U: p.U, Sender: 0, SenderValue: alpha,
			Faulty:    types.NewNodeSet(faulty...),
			Decisions: res.Decisions,
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
// sides must drop those messages (§4(b)'s detectable absence), never
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
// relay corruption; the channel and its twin must agree on every node's
// decision, every delivery and both counters.
func FuzzTransportVsRouted(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(7), uint8(1))
	f.Add(int64(42), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, faults uint8) {
		diffTransportVsRouted(t, seed, int(faults%3))
	})
}

// TestEquivalenceWithCompressedTransport: the channel and its hop-by-hop
// twin produce identical runs for deterministic relay corruption, across
// fault placements and protocol-level strategies, and both satisfy the spec.
func TestEquivalenceWithCompressedTransport(t *testing.T) {
	p := core.Params{N: 9, M: 1, U: 2}
	routes := table(must(topology.Harary(4, 9)), p.M, p.U)
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
			ch, tw := pair(t, routes, p, corrupt, true)
			res := runBoth(t, tc.name, nodes, ch, tw, p.Depth())
			verdict := spec.Check(spec.Execution{
				M: p.M, U: p.U, Sender: 0, SenderValue: alpha,
				Faulty:    types.NewNodeSet(tc.faulty...),
				Decisions: res.Decisions,
			})
			if !verdict.OK {
				t.Errorf("hop-by-hop run violated %s: %s", verdict.Condition, verdict.Reason)
			}
		})
	}
}
