// Package transport emulates the point-to-point channels of the agreement
// protocols over incompletely connected networks, realizing the sufficiency
// half of Theorem 3 (connectivity m+u+1 suffices for m/u-degradable
// agreement).
//
// A logical message between non-adjacent nodes is routed over m+u+1
// internally-vertex-disjoint paths. Every faulty intermediate node on a path
// may rewrite or drop the copy it relays. The receiver accepts the value
// carried by at least m+1 path copies when that value is unique
// (VOTE(m+1, copies)); otherwise it receives the default value.
//
// Guarantees delivered to the protocol layer (proved in the tests):
//
//   - f ≤ m faults: at most m of the m+u+1 paths are corrupted, so the true
//     value arrives on ≥ u+1 ≥ m+1 paths while any forged value appears on
//     ≤ m < m+1 paths — the channel is perfect, matching §4's assumption (a).
//   - m < f ≤ u faults: the true value still arrives on ≥ m+1 paths, but a
//     coordinated forgery may also reach m+1 copies, tripping the tie rule —
//     the channel delivers the true value or V_d, which is exactly the
//     degradation (a message replaced by a detectable absence) that the
//     algorithm tolerates in its degraded regime (§6.1).
//
// Adjacent nodes use their direct wire and are never degraded.
package transport

import (
	"fmt"

	"degradable/internal/obs"
	"degradable/internal/round"
	"degradable/internal/topology"
	"degradable/internal/types"
	"degradable/internal/vote"
)

// RelayCorruptor decides what a faulty relay node does to a message copy
// passing through it: return the (possibly rewritten) value, or ok=false to
// drop the copy.
type RelayCorruptor func(relay types.NodeID, m types.Message, v types.Value) (types.Value, bool)

// Names of the channel's obs counters, in index order.
const (
	// CounterDegraded counts deliveries whose accepted value differed from
	// the sent one (degraded to V_d — or, below the Theorem 3 bound, to a
	// forged value).
	CounterDegraded = iota
	// CounterForwarded counts path-copy relay transmissions.
	CounterForwarded
	numCounters
)

// CounterNames are the unified-snapshot names of the channel's counters.
var CounterNames = []string{"transport_degraded_total", "transport_forwarded_total"}

// Channel is a round.Channel that routes every delivery over vertex-
// disjoint paths of the given graph with Byzantine relays interposed.
type Channel struct {
	g        *topology.Graph
	m        int
	paths    map[[2]types.NodeID][][]types.NodeID
	faulty   map[types.NodeID]RelayCorruptor
	counters *obs.CounterSet
}

var _ round.Channel = (*Channel)(nil)

// Stats returns the channel's accounting in the unified snapshot schema.
func (c *Channel) Stats() obs.Snapshot { return c.counters.Snapshot() }

// New builds a disjoint-path channel for an m/u instance over g. It
// precomputes m+u+1 disjoint paths for every ordered pair of nodes and fails
// if the graph's pairwise connectivity is insufficient (Theorem 3
// necessity: such a graph cannot support the agreement).
func New(g *topology.Graph, m, u int, faulty map[types.NodeID]RelayCorruptor) (*Channel, error) {
	return build(g, m, u, faulty, true)
}

// NewLoose is New without the connectivity requirement: pairs with fewer
// than m+u+1 disjoint paths route over however many exist. It exists only
// for the lower-bound demonstrations, which run the protocol on topologies
// Theorem 3 proves inadequate and observe the resulting violation.
func NewLoose(g *topology.Graph, m, u int, faulty map[types.NodeID]RelayCorruptor) (*Channel, error) {
	return build(g, m, u, faulty, false)
}

func build(g *topology.Graph, m, u int, faulty map[types.NodeID]RelayCorruptor, strict bool) (*Channel, error) {
	if g == nil {
		return nil, fmt.Errorf("transport: nil graph")
	}
	if m < 0 || u < m || u < 1 {
		return nil, fmt.Errorf("transport: infeasible m=%d u=%d", m, u)
	}
	need := m + u + 1
	c := &Channel{
		g:        g,
		m:        m,
		paths:    make(map[[2]types.NodeID][][]types.NodeID),
		faulty:   faulty,
		counters: obs.NewCounterSet(CounterNames...),
	}
	n := g.N()
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a == b {
				continue
			}
			s, t := types.NodeID(a), types.NodeID(b)
			if g.HasEdge(s, t) {
				continue // direct wire
			}
			ps, err := g.DisjointPaths(s, t, need)
			if err != nil {
				return nil, err
			}
			if strict && len(ps) < need {
				return nil, fmt.Errorf(
					"transport: only %d disjoint paths between %d and %d, need %d (connectivity below m+u+1)",
					len(ps), a, b, need)
			}
			c.paths[[2]types.NodeID{s, t}] = ps
		}
	}
	return c, nil
}

// Deliver implements round.Channel. A pair with no route (loose mode on a
// severed graph) is dropped — the detectable absence of §4 assumption (b),
// as in routednet.Channel.
func (c *Channel) Deliver(m types.Message) (types.Message, bool) {
	if c.g.HasEdge(m.From, m.To) {
		return m, true // direct wire, never degraded
	}
	ps := c.paths[[2]types.NodeID{m.From, m.To}]
	if len(ps) == 0 {
		return types.Message{}, false
	}
	copies := make([]types.Value, 0, len(ps))
	for _, p := range ps {
		v := m.Value
		dropped := false
		for _, hop := range p[1 : len(p)-1] {
			c.counters.Inc(CounterForwarded)
			corrupt, isFaulty := c.faulty[hop]
			if !isFaulty {
				continue
			}
			nv, keep := corrupt(hop, m, v)
			if !keep {
				dropped = true
				break
			}
			v = nv
		}
		if !dropped {
			copies = append(copies, v)
		}
	}
	accepted := vote.Vote(c.m+1, copies)
	if accepted != m.Value {
		c.counters.Inc(CounterDegraded)
	}
	m.Value = accepted
	return m, true
}

// FlipTo returns a corruptor that rewrites every copy to a fixed value —
// the cut-set behaviour in the Theorem 3 impossibility scenario.
func FlipTo(v types.Value) RelayCorruptor {
	return func(_ types.NodeID, _ types.Message, _ types.Value) (types.Value, bool) {
		return v, true
	}
}

// DropAll returns a corruptor that drops every copy passing through.
func DropAll() RelayCorruptor {
	return func(types.NodeID, types.Message, types.Value) (types.Value, bool) {
		return types.Default, false
	}
}

// FlipCrossing returns the Theorem-3 proof behaviour: copies of messages
// whose endpoints lie in different sides (per side membership) are rewritten
// to forged; all other copies are rewritten to other.
func FlipCrossing(side1 types.NodeSet, forged, other types.Value) RelayCorruptor {
	return func(_ types.NodeID, m types.Message, _ types.Value) (types.Value, bool) {
		if side1.Contains(m.From) != side1.Contains(m.To) {
			return forged, true
		}
		return other, true
	}
}
