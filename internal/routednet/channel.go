// Package routednet executes agreement protocols over an incompletely
// connected network with TRUE hop-by-hop forwarding: every logical message
// between non-adjacent nodes is physically split into copies, one per
// vertex-disjoint path, and each copy traverses its route one hop at a
// time, with Byzantine relays corrupting or dropping copies as they pass.
// The destination accepts the value carried by at least m+1 copies when
// unique (VOTE(m+1, copies)), else the default value.
//
// This is the uncompressed counterpart of internal/transport, which folds
// the whole traversal into a single delivery function. DESIGN.md claims the
// two are equivalent for corruption behaviours that depend only on (relay,
// message, value); the tests in this package verify that claim by running
// identical instances both ways and comparing every decision. The
// uncompressed engine also reports true link-level traffic (hop count),
// which the compressed channel can only estimate.
//
// The forwarding machinery lives in Channel, a round.Channel: any
// round.Driver can run over it (the chaos engine selects it per scenario as
// the "routed" topology mode), and Stats reports its link-level accounting.
package routednet

import (
	"degradable/internal/obs"
	"degradable/internal/round"
	"degradable/internal/topology"
	"degradable/internal/transport"
	"degradable/internal/types"
	"degradable/internal/vote"
)

// Names of the channel's obs counters, in index order.
const (
	// CounterHops counts physical link traversals (every copy, every hop;
	// direct-wire deliveries count one).
	CounterHops = iota
	// CounterDegraded counts logical deliveries whose accepted value
	// differed from the sent one.
	CounterDegraded
	numCounters
)

// CounterNames are the unified-snapshot names of the channel's counters.
var CounterNames = []string{"routed_hops_total", "routed_degraded_total"}

// Channel is a round.Channel that performs TRUE hop-by-hop forwarding: one
// token per vertex-disjoint path per logical message, each advanced a link
// at a time with Byzantine relays corrupting or dropping copies in flight,
// then VOTE(m+1, copies) acceptance at the destination. It is the
// uncompressed counterpart of transport.Channel behind the same interface,
// which is what lets every round.Driver — goroutine, sequential, cluster —
// run over an incomplete graph with real link-level accounting. Its own
// state is the relay corruptors and the counters; the routes are a shared
// table.
type Channel struct {
	routes   *topology.Routes
	m        int
	faulty   map[types.NodeID]transport.RelayCorruptor
	counters *obs.CounterSet
}

var _ round.Channel = (*Channel)(nil)

// NewChannel builds a hop-by-hop channel for an m/u instance over a route
// table built for m+u+1 paths per pair. strict fails when some pair has
// fewer (Theorem 3 necessity); loose routes over what exists, for the
// lower-bound demonstrations. See Routes.Fit.
func NewChannel(r *topology.Routes, m, u int, faulty map[types.NodeID]transport.RelayCorruptor, strict bool) (*Channel, error) {
	if err := r.Fit(m, u, strict); err != nil {
		return nil, err
	}
	return &Channel{routes: r, m: m, faulty: faulty, counters: obs.NewCounterSet(CounterNames...)}, nil
}

// Stats returns the channel's accounting in the unified snapshot schema.
func (c *Channel) Stats() obs.Snapshot { return c.counters.Snapshot() }

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
// An unroutable message (loose mode on a severed graph) is dropped — the
// detectable absence of §4 assumption (b).
func (c *Channel) Deliver(m types.Message) (types.Message, bool) {
	if c.routes.Adjacent(m.From, m.To) {
		c.counters.Inc(CounterHops)
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
			c.counters.Inc(CounterHops)
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
		c.counters.Inc(CounterDegraded)
	}
	m.Value = accepted
	return m, true
}
