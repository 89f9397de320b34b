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
	"degradable/internal/obs"
	"degradable/internal/round"
	"degradable/internal/topology"
	"degradable/internal/types"
	"degradable/internal/vote"
)

// RelayCorruptor decides what a faulty relay node does to a message copy
// passing through it: return the (possibly rewritten) value, or ok=false to
// drop the copy. It must be a pure function of (relay, message, value):
// Deliver walks one path to the end before starting the next, so the order
// in which relays on different paths are consulted is not part of the
// contract. FlipTo, DropAll and FlipCrossing are pure.
type RelayCorruptor func(relay types.NodeID, m types.Message, v types.Value) (types.Value, bool)

// Names of the channel's obs counters, in index order.
const (
	// CounterDegraded counts deliveries whose accepted value differed from
	// the sent one (degraded to V_d — or, below the Theorem 3 bound, to a
	// forged value).
	CounterDegraded = iota
	// CounterHops counts physical link traversals: one per direct-wire
	// delivery, and one per link each path copy crosses — the link into a
	// relay that drops the copy included, and the final link into the
	// destination.
	CounterHops
	numCounters
)

// CounterNames are the unified-snapshot names of the channel's counters.
var CounterNames = []string{"transport_degraded_total", "transport_hops_total"}

// Channel is a round.Channel that routes every delivery over vertex-
// disjoint paths of a shared route table with Byzantine relays interposed.
// Its own state is the relay corruptors and the counters.
type Channel struct {
	routes   *topology.Routes
	m        int
	faulty   map[types.NodeID]RelayCorruptor
	counters *obs.CounterSet
}

var _ round.Channel = (*Channel)(nil)

// Stats returns the channel's accounting in the unified snapshot schema.
func (c *Channel) Stats() obs.Snapshot { return c.counters.Snapshot() }

// New builds a disjoint-path channel for an m/u instance over a route
// table built for m+u+1 paths per pair. Strict mode fails if some pair has
// fewer (Theorem 3 necessity: such a graph cannot support the agreement);
// loose mode routes over however many exist, for the lower-bound
// demonstrations, which run the protocol on topologies Theorem 3 proves
// inadequate and observe the resulting violation. See Routes.Fit.
func New(r *topology.Routes, m, u int, faulty map[types.NodeID]RelayCorruptor, strict bool) (*Channel, error) {
	if err := r.Fit(m, u, strict); err != nil {
		return nil, err
	}
	return &Channel{routes: r, m: m, faulty: faulty, counters: obs.NewCounterSet(CounterNames...)}, nil
}

// Deliver implements round.Channel. An adjacent pair uses its direct wire
// (one hop, never degraded). Otherwise each disjoint path is walked once,
// relay by relay, and the copies that reach the destination are accepted by
// VOTE(m+1, copies). A pair with no route (loose mode on a severed graph) is
// dropped — the detectable absence of §4 assumption (b).
func (c *Channel) Deliver(m types.Message) (types.Message, bool) {
	if c.routes.Adjacent(m.From, m.To) {
		c.counters.Inc(CounterHops)
		return m, true
	}
	ps := c.routes.Paths(m.From, m.To)
	if len(ps) == 0 {
		return types.Message{}, false
	}
	copies := make([]types.Value, 0, len(ps))
	hops := 0
	for _, p := range ps {
		v, kept := m.Value, true
		for _, relay := range p[1 : len(p)-1] {
			hops++ // the link into relay
			if corrupt, bad := c.faulty[relay]; bad {
				if v, kept = corrupt(relay, m, v); !kept {
					break
				}
			}
		}
		if kept {
			hops++ // the link into the destination
			copies = append(copies, v)
		}
	}
	c.counters.Add(CounterHops, uint64(hops))
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
