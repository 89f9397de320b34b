// Package relay implements the honest participant of a depth-d EIG relay
// protocol over round.Engine. It is the message-passing realization of the
// paper's algorithm skeleton (§4):
//
//	round 1:     the sender sends its value to all receivers;
//	round r ≥ 2: every receiver relays, for each claim σ of length r−1 it
//	             holds (with itself not on σ), the value it recorded for σ,
//	             labelled σ·self — "self says the value along σ is v";
//	after the last round each receiver resolves its EIG tree with the
//	protocol's voting rule.
//
// The same node serves the paper's BYZ(m,m) (rule = VOTE(n_σ−1−m, n_σ−1))
// and the OM(m) baseline (rule = majority); only the rule differs. Honest
// nodes always send every scheduled message (the paper assumes a node always
// sends when it is supposed to); a claim that never arrived is relayed as
// the default value, which is also what receivers substitute for absent
// messages.
//
// Node is a round.LaneNode. On an engine whose configuration allows the
// bulk lane, and whose every node takes slabs of this node's shape, a
// round-r relay is not a message: the engine counts it, and at the barrier
// each receiver copies the relayer's level-(r−1) values into its own tree
// under the σ·relayer labels (eig.Tree.StoreRelays) — or, for the last
// round, records the relayer's tree as their holder (eig.Tree.ReferRelays)
// — so Outbox sends no relays at all. A lying relayer (Liar, the Byzantine wrapper) sends its
// round as one value vector per recipient instead, which the receiver
// stores through the same relay plan (eig.Tree.StoreClaims).
package relay

import (
	"fmt"

	"degradable/internal/eig"
	"degradable/internal/round"
	"degradable/internal/types"
)

// Node is an honest protocol participant (sender or receiver).
type Node struct {
	id       types.NodeID
	n        int
	sender   types.NodeID
	value    types.Value // sender's input; unused for receivers
	tree     *eig.Tree
	rule     eig.Rule
	decision types.Value
	decided  bool

	// fastResolve lets Finish take the tree's O(1) unanimity shortcut. Only
	// sound for unanimity-respecting rules; see EnableFastResolve.
	fastResolve bool

	// tmpl caches per-round outbox templates, indexed by round. A round's
	// relay schedule is value-independent: the (To, Round, Path) triples are
	// a pure function of (n, depth, sender, id, round), so the template is
	// built once and only the Value fields are rewritten on each Outbox call.
	// Safe to hand to callers because the engine copies Message structs on
	// Collect and nothing mutates the shared Path backing arrays. Survives
	// Reset — pooled nodes re-run the same shape.
	tmpl [][]types.Message

	// lane is set while the engine has every other node take this node's
	// relays as slabs (see SetLanePeers); Outbox then sends none.
	lane bool
}

var _ round.LaneNode = (*Node)(nil)

// Liar is a lane relayer whose claims differ per recipient: the Byzantine
// wrapper. Claims returns what its last relay round sent node to: claim k,
// in relay-plan order (eig.Tree.Relays), carries vals[k] when bit k of sent
// is set and was not sent otherwise.
type Liar interface {
	round.LaneSender
	Claims(to types.NodeID) (vals []types.Value, sent []uint64)
}

// New returns an honest node. If id == sender, value is the input to
// distribute; receivers ignore it. depth is the number of message rounds.
func New(n, depth int, sender, id types.NodeID, value types.Value, rule eig.Rule) (*Node, error) {
	if id < 0 || int(id) >= n {
		return nil, fmt.Errorf("relay: id %d out of range", int(id))
	}
	if rule == nil {
		return nil, fmt.Errorf("relay: nil rule")
	}
	tree, err := eig.New(n, depth, sender)
	if err != nil {
		return nil, err
	}
	return &Node{id: id, n: n, sender: sender, value: value, tree: tree, rule: rule}, nil
}

// Protocol is an EIG relay exchange named by its shape and its rule and
// judged at (M, U): a runner.Protocol. OM and Crusader build their nodes
// through it; the ablations and Figure 2's N = 4 attempt run it directly
// with rules no parameter type validates.
type Protocol struct {
	N, Depth int
	Sender   types.NodeID
	M, U     int
	Rule     eig.Rule
}

// System implements runner.Protocol.
func (p Protocol) System() (n, depth int, sender types.NodeID) { return p.N, p.Depth, p.Sender }

// Thresholds implements runner.Protocol.
func (p Protocol) Thresholds() (m, u int) { return p.M, p.U }

// Nodes implements runner.Protocol: the honest complement, the sender
// holding value.
func (p Protocol) Nodes(value types.Value) ([]round.Node, error) {
	nodes := make([]round.Node, p.N)
	for i := range nodes {
		nd, err := New(p.N, p.Depth, p.Sender, types.NodeID(i), value, p.Rule)
		if err != nil {
			return nil, err
		}
		nodes[i] = nd
	}
	return nodes, nil
}

// ID implements round.Node.
func (nd *Node) ID() types.NodeID { return nd.id }

// Reset returns the node to its pre-run state with a (possibly new) sender
// input, retaining the tree's allocated storage. A warm instance
// (runner.Warm) reuses its complement across runs of the same shape; a
// Reset node behaves identically to a freshly constructed one.
func (nd *Node) Reset(value types.Value) {
	nd.value = value
	nd.decision = types.Default
	nd.decided = false
	nd.tree.Reset()
}

// Tree exposes the node's EIG tree (read-only use by tests and by
// `degradable degrade -explain`).
func (nd *Node) Tree() *eig.Tree { return nd.tree }

// EnableFastResolve lets Finish decide via the tree's O(1) unanimity
// shortcut (eig.Tree.FastDecision) before falling back to the full resolve.
// The shortcut is only sound for unanimity-respecting rules — rules that map
// an all-v vote vector to v — which holds for the paper's VOTE (the
// threshold never exceeds the vector length) and for Majority, but not for
// an arbitrary Rule; hence opt-in rather than default.
func (nd *Node) EnableFastResolve() { nd.fastResolve = true }

// Step implements round.Node.
func (nd *Node) Step(round int, inbox []types.Message) []types.Message {
	nd.absorb(round, inbox)
	return nd.Outbox(round)
}

// Outbox computes the honest sends for the given round from the node's
// current tree. It is exported so the Byzantine wrapper in the adversary
// package can obtain the honest schedule and corrupt it. On an armed lane
// (see SetLanePeers) the relay rounds send nothing; a node no engine
// armed, like the wrapper's, sends its full schedule.
func (nd *Node) Outbox(round int) []types.Message {
	if round < 1 || round > nd.tree.Depth() {
		return nil
	}
	if round == 1 && nd.id != nd.sender || round > 1 && nd.lane {
		return nil
	}
	if nd.tmpl == nil {
		nd.tmpl = make([][]types.Message, nd.tree.Depth()+1)
	}
	out := nd.tmpl[round]
	if out == nil {
		out = nd.buildTemplate(round)
		nd.tmpl[round] = out
	}
	// Rewrite only the values: each claim occupies a contiguous block of
	// n−1 template messages (one per recipient) sharing one path, and the
	// relay plan lists the claims' parents in the same order.
	if round == 1 {
		for i := range out {
			out[i].Value = nd.value
		}
		return out
	}
	claims := nd.tree.Relays(round, nd.id)
	for c, i := 0, 0; i < len(out); c, i = c+1, i+nd.n-1 {
		v := claims.Value(c) // Default when the claim never arrived
		for k := 0; k < nd.n-1; k++ {
			out[i+k].Value = v
		}
	}
	return out
}

// LaneShape implements round.LaneNode: nodes whose trees share a layout
// can copy each other's slabs. A tree past NodeSet's range has none.
func (nd *Node) LaneShape() any {
	if rk := nd.tree.Layout(); rk != nil {
		return rk
	}
	return nil
}

// SetLanePeers implements round.LaneNode. The engine names every other
// node or none, so the node relays by slab or by message, never a mix.
// Round 1 is always sent in full: the lane only carries relays.
func (nd *Node) SetLanePeers(peers types.NodeSet) { nd.lane = peers != 0 }

// LaneSent implements round.LaneSender: the claims of LaneClaims to each
// of the n−1 other nodes.
func (nd *Node) LaneSent(round int) int { return nd.LaneClaims(round) * (nd.n - 1) }

// LaneClaims implements round.LaneNode: a round-r relayer owes each
// recipient one claim per length-(r−1) path that avoids it, P(n−2, r−2)
// of them; the sender relays nothing.
func (nd *Node) LaneClaims(round int) int {
	if round < 2 || round > nd.tree.Depth() || nd.id == nd.sender {
		return 0
	}
	c := 1
	for k := 0; k < round-2; k++ {
		c *= nd.n - 2 - k
	}
	return c
}

// TakeSlab implements round.LaneReceiver: it stores src's round-r relays
// to this node as absorb would store the messages — an honest relayer's
// tree level, or a Liar's vector for this node. An honest relayer's last
// round is stored by reference to its tree, whose level depth−1 no later
// step of the run changes.
func (nd *Node) TakeSlab(src round.LaneSender, round int) {
	var err error
	switch s := src.(type) {
	case *Node:
		if round == nd.tree.Depth() {
			err = nd.tree.ReferRelays(s.tree, s.id, nd.id)
		} else {
			err = nd.tree.StoreRelays(s.tree, s.id, nd.id, round)
		}
	case Liar:
		vals, sent := s.Claims(nd.id)
		err = nd.tree.StoreClaims(vals, sent, s.ID(), nd.id, round)
	default:
		err = fmt.Errorf("unknown relayer %T", src)
	}
	if err != nil {
		panic(fmt.Sprintf("relay: slab from %d to %d: %v", int(src.ID()), int(nd.id), err))
	}
}

// buildTemplate materializes the value-independent (To, Round, Path) frame
// of the round's schedule: round 1 is the sender's value to all, round r ≥ 2
// relays every claim of length r−1 that does not involve self, labelled with
// self appended.
func (nd *Node) buildTemplate(round int) []types.Message {
	if round == 1 {
		out := make([]types.Message, 0, nd.n-1)
		for j := 0; j < nd.n; j++ {
			if types.NodeID(j) == nd.id {
				continue
			}
			out = append(out, types.Message{
				To:    types.NodeID(j),
				Round: round,
				Path:  types.Path{nd.sender},
			})
		}
		return out
	}
	// PathCount bounds the fan-out (it counts the paths through self too, so
	// this slightly over-reserves), which keeps the builder to a single
	// allocation instead of log₂ growths.
	out := make([]types.Message, 0, nd.tree.PathCount(round-1)*(nd.n-1))
	nd.tree.ForEachPath(round-1, nd.id, func(p types.Path) bool {
		lbl := p.Append(nd.id)
		for j := 0; j < nd.n; j++ {
			if types.NodeID(j) == nd.id {
				continue
			}
			out = append(out, types.Message{To: types.NodeID(j), Round: round, Path: lbl})
		}
		return true
	})
	return out
}

// absorb validates and stores the round's deliveries. A message delivered at
// Step(r) was sent in round r−1 and must carry Round r−1 and a path of
// length r−1 whose last element is its true source; anything else is
// discarded, since a Byzantine node may send arbitrary garbage. The Round
// check matters on drivers with real transport: a frame that straggles past
// its hold-back deadline (or is replayed by an injector) arrives tagged
// with the round it was sent in, and must not be absorbed into a later one.
func (nd *Node) absorb(round int, inbox []types.Message) {
	want := round - 1
	if want < 1 {
		return
	}
	for _, m := range inbox {
		if m.Round != want {
			continue // sent in a different round than the one closing now
		}
		if len(m.Path) != want {
			continue
		}
		if m.Path.Last() != m.From {
			continue // claim not signed by its relayer
		}
		if m.Path.Contains(nd.id) {
			continue // not addressed to our role in this sub-protocol
		}
		// Set rejects a path outside the tree's universe (wrong root,
		// repeated or out-of-range node) and keeps the first write; an
		// invalid path is garbage to discard like the cases above.
		_ = nd.tree.Set(m.Path, m.Value)
	}
}

// Finish implements round.Node: it stores the last round's deliveries and
// resolves the tree.
func (nd *Node) Finish(inbox []types.Message) {
	nd.absorb(nd.tree.Depth()+1, inbox)
	switch {
	case nd.id == nd.sender:
		nd.decision = nd.value
	case nd.fastResolve:
		if v, ok := nd.tree.FastDecision(nd.id); ok {
			nd.decision = v
		} else {
			nd.decision = nd.tree.Resolve(nd.id, nd.rule)
		}
	default:
		nd.decision = nd.tree.Resolve(nd.id, nd.rule)
	}
	nd.decided = true
}

// Decide implements round.Node.
func (nd *Node) Decide() types.Value {
	if !nd.decided {
		return types.Default
	}
	return nd.decision
}
