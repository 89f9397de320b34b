// Package sm implements Lamport–Shostak–Pease's authenticated algorithm
// SM(m) ("signed messages") — the third algorithm of the paper's reference
// [7] and the classical contrast to the oral-messages family: with
// unforgeable signatures, Byzantine agreement needs only N ≥ m+2 nodes for
// m faults, versus 3m+1 for OM(m) and 2m+u+1 for the degradable trade.
// Experiment E12 puts the three node budgets side by side.
//
// The algorithm: the sender signs its value and sends it to everyone. A
// receiver that obtains a validly signed chain (v : s : j1 : ... : jk) with
// a new value v adds v to its set V, and — while the chain carries at most
// m signatures — appends its own signature and relays to every node not on
// the chain. After m+1 rounds each receiver decides choice(V): the sole
// element when |V| = 1, the default value otherwise.
//
// Byzantine nodes may sign any values of their own (equivocation included)
// and may withhold relays, but cannot forge other nodes' signatures — any
// value tampering in flight invalidates the chain and the message is
// discarded. The fault model is enforced by the sig.Authority substrate.
// Params is a runner.Protocol, so an SM run is built, armed with adversary
// strategies and judged by D.1/D.2 like every other protocol's.
package sm

import (
	"fmt"

	"degradable/internal/adversary"
	"degradable/internal/round"
	"degradable/internal/sig"
	"degradable/internal/types"
)

// Params configures one SM(m) instance.
type Params struct {
	// N is the node count, sender included. SM(m) needs N ≥ m+2.
	N int
	// M is the fault bound.
	M int
	// Sender is the distributing node.
	Sender types.NodeID
}

// Validate checks N ≥ m+2 and ranges.
func (p Params) Validate() error {
	if p.M < 1 {
		return fmt.Errorf("sm: m must be at least 1, got %d", p.M)
	}
	if p.N < p.M+2 {
		return fmt.Errorf("sm: need N >= m+2; N=%d m=%d", p.N, p.M)
	}
	if p.Sender < 0 || int(p.Sender) >= p.N {
		return fmt.Errorf("sm: sender %d out of range", int(p.Sender))
	}
	return nil
}

// Depth returns the number of message rounds, m+1.
func (p Params) Depth() int { return p.M + 1 }

// System implements runner.Protocol.
func (p Params) System() (n, depth int, sender types.NodeID) {
	return p.N, p.Depth(), p.Sender
}

// Thresholds implements runner.Protocol: SM(m) promises Byzantine agreement
// (D.1/D.2) up to m faults and nothing past them.
func (p Params) Thresholds() (m, u int) { return p.M, p.M }

// Nodes implements runner.Protocol: the honest complement over one shared
// sig.Authority, the sender holding value.
func (p Params) Nodes(value types.Value) ([]round.Node, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	auth := sig.NewAuthority()
	nodes := make([]round.Node, p.N)
	for i := range nodes {
		nd, err := NewNode(p, types.NodeID(i), value, auth)
		if err != nil {
			return nil, err
		}
		nodes[i] = nd
	}
	return nodes, nil
}

// Node is an SM(m) participant. A faulty one is armed with an
// adversary.Strategy (Arm), which rewrites or drops each outgoing value
// BEFORE the node signs it, so its lies carry its own valid signature —
// exactly the power the authenticated model grants a traitor.
type Node struct {
	p        Params
	id       types.NodeID
	auth     *sig.Authority
	value    types.Value // sender's input
	strat    adversary.Strategy
	seen     map[types.Value]bool
	decision types.Value
	decided  bool
}

var (
	_ round.Node        = (*Node)(nil)
	_ adversary.Armable = (*Node)(nil)
)

// NewNode returns an honest participant. auth must be shared by the whole
// instance.
func NewNode(p Params, id types.NodeID, value types.Value, auth *sig.Authority) (*Node, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if id < 0 || int(id) >= p.N {
		return nil, fmt.Errorf("sm: id %d out of range", int(id))
	}
	if auth == nil {
		return nil, fmt.Errorf("sm: nil authority")
	}
	return &Node{p: p, id: id, auth: auth, value: value, seen: make(map[types.Value]bool)}, nil
}

// Arm implements adversary.Armable: from now on every send goes through
// strat before it is signed.
func (nd *Node) Arm(strat adversary.Strategy) { nd.strat = strat }

// egress is the value the node signs and sends to `to` in place of v: v
// itself when honest, its strategy's choice when armed (ok=false drops the
// send). The strategy is shown the scheduled send: recipient, round, the
// chain so far and v.
func (nd *Node) egress(round int, to types.NodeID, path types.Path, v types.Value) (types.Value, bool) {
	if nd.strat == nil {
		return v, true
	}
	return nd.strat.Corrupt(nd.id, types.Message{To: to, Round: round, Path: path, Value: v})
}

// ID implements round.Node.
func (nd *Node) ID() types.NodeID { return nd.id }

// Step implements round.Node.
func (nd *Node) Step(round int, inbox []types.Message) []types.Message {
	if round == 1 {
		if nd.id != nd.p.Sender {
			return nil
		}
		// The sender signs and sends its value; value may be per-recipient
		// for a Byzantine (equivocating) sender.
		var out []types.Message
		for j := 0; j < nd.p.N; j++ {
			to := types.NodeID(j)
			if to == nd.id {
				continue
			}
			v, ok := nd.egress(round, to, types.Path{nd.id}, nd.value)
			if !ok {
				continue
			}
			chain := nd.auth.Sign(nd.id, v, nil)
			out = append(out, types.Message{To: to, Path: chain, Value: v})
		}
		nd.seen[nd.value] = true
		return out
	}
	return nd.relay(round, inbox)
}

// relay validates the round's deliveries and relays newly seen values.
func (nd *Node) relay(round int, inbox []types.Message) []types.Message {
	var out []types.Message
	for _, m := range nd.accept(round, inbox) {
		if len(m.Path) > nd.p.M {
			continue // already carries m+1 signatures; no further relay
		}
		for j := 0; j < nd.p.N; j++ {
			to := types.NodeID(j)
			if to == nd.id || m.Path.Contains(to) {
				continue
			}
			v, ok := nd.egress(round, to, m.Path, m.Value)
			if !ok {
				continue
			}
			// Signing a changed value yields a chain whose earlier links
			// don't verify for v — receivers will discard it, exactly as
			// the signature model dictates. The faulty node may still do
			// it; it just doesn't help.
			chain := nd.auth.Sign(nd.id, v, m.Path)
			out = append(out, types.Message{To: to, Path: chain, Value: v})
		}
	}
	return out
}

// accept returns the validly signed, fresh-valued messages of the round and
// records their values.
func (nd *Node) accept(round int, inbox []types.Message) []types.Message {
	var fresh []types.Message
	for _, m := range inbox {
		if len(m.Path) != round-1 {
			continue
		}
		if m.Path.Last() != m.From || m.Path[0] != nd.p.Sender {
			continue
		}
		if m.Path.Contains(nd.id) || !m.Path.Valid(nd.p.N) {
			continue
		}
		if !nd.auth.Verify(m.Value, m.Path) {
			continue // forged or tampered chain
		}
		if nd.seen[m.Value] {
			continue
		}
		nd.seen[m.Value] = true
		fresh = append(fresh, m)
	}
	return fresh
}

// Finish implements round.Node.
func (nd *Node) Finish(inbox []types.Message) {
	nd.accept(nd.p.Depth()+1, inbox)
	if nd.id == nd.p.Sender {
		nd.decision = nd.value
	} else {
		nd.decision = nd.choice()
	}
	nd.decided = true
}

// choice implements SM's choice(V): the unique value when exactly one
// genuine value was certified, the default otherwise. The sender's own
// bookkeeping entry is excluded for receivers (they track only certified
// values).
func (nd *Node) choice() types.Value {
	var only types.Value
	count := 0
	for v := range nd.seen {
		only = v
		count++
	}
	if count == 1 {
		return only
	}
	return types.Default
}

// Decide implements round.Node.
func (nd *Node) Decide() types.Value {
	if !nd.decided {
		return types.Default
	}
	return nd.decision
}
