// Package adversary implements Byzantine node behaviours for the agreement
// protocols.
//
// A faulty node is modelled as the honest relay node plus an egress
// corruption strategy: the node absorbs protocol traffic normally (so its
// lies can be informed), computes the full honest message schedule for each
// round, and then rewrites values or omits messages per the strategy. The
// schedule covers every claim the node could legitimately relay — including
// claims it never received — so fabrication, equivocation, selective
// silence, and crashes are all expressible while traffic stays well-formed
// enough to pass honest validation (arbitrary garbage would simply be
// discarded by receivers, making it a weaker attack).
//
// On the bulk lane a faulty node takes the other nodes' relays as slabs,
// like any receiver (round.LaneReceiver, by delegation to its honest
// node), and sends its own relays as slabs of lies (relay.Liar): every
// scheduled send still goes through its strategy, but the value chosen for
// each recipient lands in that recipient's vector instead of a message.
// It never relays its honest tree. It resolves nothing at the end, since a
// faulty node's decision carries no guarantee (D.1–D.4 judge only the
// fault-free receivers) and Decide reports V_d regardless.
package adversary

import (
	"fmt"
	"math/rand"

	"degradable/internal/eig"
	"degradable/internal/protocol/relay"
	"degradable/internal/rng"
	"degradable/internal/round"
	"degradable/internal/types"
)

// Strategy decides what a Byzantine node sends in place of each scheduled
// message. Corrupt receives the scheduled message with the honest value
// filled in and returns the value to send; ok=false omits the message
// entirely (the recipient will detect absence and substitute V_d).
//
// Implementations are called from a single goroutine per node and need not
// be safe for concurrent use, but one Strategy value may be shared by
// several faulty nodes (colluding adversaries); such strategies must be
// stateless or synchronized.
type Strategy interface {
	Corrupt(self types.NodeID, m types.Message) (types.Value, bool)
}

// Observer is an optional extension of Strategy: strategies that implement
// it are shown the faulty node's accumulated EIG tree at the start of every
// round, enabling adaptive attacks that react to what the node has actually
// learned (e.g. lying with whatever value is currently winning).
type Observer interface {
	Observe(round int, tree *eig.Tree)
}

// Node is a Byzantine participant: honest state, corrupted egress.
type Node struct {
	honest *relay.Node
	strat  Strategy
	// outBuf is the reused egress buffer: Step filters the honest schedule
	// into it, and the engine copies the Message structs on Collect, so the
	// buffer is free again by the node's next Step.
	outBuf []types.Message

	// lane is set while the engine has every other node take this node's
	// relays as slabs (see SetLanePeers). A relay round's Step then fills
	// vals and sent instead of outBuf: recipient j's claims sit at
	// vals[j*claims:] and its presence bits at sent[j*words:], and they
	// stay valid until the next Step, past the barrier that stores them.
	lane          bool
	claims, words int
	vals          []types.Value
	sent          []uint64
	nsent         int
}

var _ relay.Liar = (*Node)(nil)

// NewNode wraps a Byzantine node with the given identity and strategy.
// The arguments mirror relay.New; value matters only when id == sender.
func NewNode(n, depth int, sender, id types.NodeID, value types.Value, strat Strategy) (*Node, error) {
	if strat == nil {
		return nil, fmt.Errorf("adversary: nil strategy")
	}
	honest, err := relay.New(n, depth, sender, id, value, eig.RuleFunc(func(int, []types.Value) types.Value {
		return types.Default // a faulty node's own decision is irrelevant
	}))
	if err != nil {
		return nil, err
	}
	return &Node{honest: honest, strat: strat}, nil
}

// ID implements round.Node.
func (b *Node) ID() types.NodeID { return b.honest.ID() }

// Reset returns the node to its pre-run state and re-arms it with a new
// strategy (and sender input, relevant only when the node is the sender).
// A warm instance (runner.Warm) keeps its wrappers alongside its honest
// complement; a Reset node behaves identically to one built by NewNode.
func (b *Node) Reset(value types.Value, strat Strategy) {
	b.honest.Reset(value)
	b.strat = strat
}

// Step implements round.Node. Corrupt sees every send of the honest
// schedule once, in outbox order. Off the lane the results go out as
// messages; on it, a relay round's results go into the per-recipient
// vectors Claims reads at the barrier, and Step returns no messages.
func (b *Node) Step(round int, inbox []types.Message) []types.Message {
	scheduled := b.honest.Step(round, inbox)
	if obs, ok := b.strat.(Observer); ok {
		obs.Observe(round, b.honest.Tree())
	}
	if b.lane && round >= 2 {
		b.lie(scheduled)
		return nil
	}
	if cap(b.outBuf) < len(scheduled) {
		b.outBuf = make([]types.Message, 0, len(scheduled))
	}
	out := b.outBuf[:0]
	for _, m := range scheduled {
		v, ok := b.strat.Corrupt(b.ID(), m)
		if !ok {
			continue
		}
		m.Value = v
		out = append(out, m)
	}
	return out
}

// lie corrupts a relay round's schedule into the per-recipient vectors.
// The schedule lists each claim as a block of n−1 sends, one per
// recipient, in relay-plan order.
func (b *Node) lie(scheduled []types.Message) {
	n := b.honest.Tree().N()
	claims := len(scheduled) / (n - 1)
	words := (claims + 63) / 64
	if cap(b.vals) < n*claims {
		b.vals = make([]types.Value, n*claims)
	}
	if cap(b.sent) < n*words {
		b.sent = make([]uint64, n*words)
	}
	vals, sent := b.vals[:n*claims], b.sent[:n*words]
	clear(sent)
	self, nsent := b.ID(), 0
	for c := 0; c < claims; c++ {
		for _, m := range scheduled[c*(n-1) : (c+1)*(n-1)] {
			v, ok := b.strat.Corrupt(self, m)
			if !ok {
				continue
			}
			to := int(m.To)
			vals[to*claims+c] = v
			sent[to*words+c>>6] |= 1 << uint(c&63)
			nsent++
		}
	}
	b.vals, b.sent, b.claims, b.words, b.nsent = vals, sent, claims, words, nsent
}

// SetLanePeers implements round.LaneSender: the engine names every other
// node or none. Round 1 is always sent as messages, a faulty sender's
// included.
func (b *Node) SetLanePeers(peers types.NodeSet) { b.lane = peers != 0 }

// LaneSent implements round.LaneSender: the sends the round's Step did not
// drop. Round 1 has no slab, whatever an earlier run left in nsent.
func (b *Node) LaneSent(round int) int {
	if round < 2 {
		return 0
	}
	return b.nsent
}

// Claims implements relay.Liar: what the last relay round sent node to.
func (b *Node) Claims(to types.NodeID) ([]types.Value, []uint64) {
	j := int(to)
	return b.vals[j*b.claims : (j+1)*b.claims], b.sent[j*b.words : (j+1)*b.words]
}

// LaneShape implements round.LaneReceiver: the honest node's shape.
func (b *Node) LaneShape() any { return b.honest.LaneShape() }

// TakeSlab implements round.LaneReceiver: the honest node stores the relays
// as it would absorb the messages, at the barrier before the Step that
// shows an Observer the tree. The last round's relays are read by no Step;
// only Finish would absorb them, and Finish does nothing, so they are not
// stored at all.
func (b *Node) TakeSlab(src round.LaneSender, round int) {
	if round < b.honest.Tree().Depth() {
		b.honest.TakeSlab(src, round)
	}
}

// Finish implements round.Node. It does nothing: the last round's messages
// could only feed the node's own decision, which Decide never reports.
func (b *Node) Finish([]types.Message) {}

// Decide implements round.Node. A faulty node's decision carries no
// guarantee; it reports V_d.
func (b *Node) Decide() types.Value { return types.Default }

// Armable is a node that carries its own Byzantine egress: Wrap arms it
// with its strategy instead of wrapping it in Node, the EIG relay wrapper.
// SM's signing node is one, since its strategy must act before it signs.
// Such a node keeps no EIG tree, so an Observer strategy is never shown one.
type Armable interface {
	Arm(Strategy)
}

// Wrap arms the entries of nodes named in strategies: an Armable node arms
// itself, any other is replaced with a Byzantine wrapper. nodes must be the
// honest complement (e.g. from core.Params.Nodes) of a protocol with the
// given shape. senderValue is the faulty sender's nominal input, used as
// the honest baseline its strategy corrupts.
func Wrap(nodes []round.Node, n, depth int, sender types.NodeID, senderValue types.Value,
	strategies map[types.NodeID]Strategy) error {
	for id, strat := range strategies {
		if id < 0 || int(id) >= len(nodes) {
			return fmt.Errorf("adversary: faulty id %d out of range", int(id))
		}
		if a, ok := nodes[int(id)].(Armable); ok && strat != nil {
			a.Arm(strat)
			continue
		}
		bn, err := NewNode(n, depth, sender, id, senderValue, strat)
		if err != nil {
			return err
		}
		nodes[int(id)] = bn
	}
	return nil
}

//
// Strategies
//

// Honest performs no corruption: a "faulty" node that happens to behave
// correctly. The worst case over adversaries always includes it.
type Honest struct{}

// Corrupt implements Strategy.
func (Honest) Corrupt(_ types.NodeID, m types.Message) (types.Value, bool) { return m.Value, true }

// Silent omits every message: a fail-silent (crashed-from-start) node.
type Silent struct{}

// Corrupt implements Strategy.
func (Silent) Corrupt(types.NodeID, types.Message) (types.Value, bool) {
	return types.Default, false
}

// Crash behaves honestly through round After, then falls silent.
type Crash struct {
	After int
}

// Corrupt implements Strategy.
func (c Crash) Corrupt(_ types.NodeID, m types.Message) (types.Value, bool) {
	if m.Round > c.After {
		return types.Default, false
	}
	return m.Value, true
}

// Lie replaces every value with a fixed one (V_d is allowed).
type Lie struct {
	Value types.Value
}

// Corrupt implements Strategy.
func (l Lie) Corrupt(types.NodeID, types.Message) (types.Value, bool) { return l.Value, true }

// TwoFaced tells recipients in A one value and everyone else another — the
// classic equivocating sender of the Figure 2 scenarios.
type TwoFaced struct {
	A       types.NodeSet
	ValueA  types.Value
	ValueB  types.Value
	OnlyOwn bool // corrupt only round-1 own-value sends, relay honestly
}

// Corrupt implements Strategy.
func (t TwoFaced) Corrupt(_ types.NodeID, m types.Message) (types.Value, bool) {
	if t.OnlyOwn && m.Round != 1 {
		return m.Value, true
	}
	if t.A.Contains(m.To) {
		return t.ValueA, true
	}
	return t.ValueB, true
}

// PerRecipient sends each recipient a scripted value (falling back to the
// honest value when unscripted). Used by the exact Figure 2 scenarios.
type PerRecipient struct {
	Values map[types.NodeID]types.Value
}

// Corrupt implements Strategy.
func (p PerRecipient) Corrupt(_ types.NodeID, m types.Message) (types.Value, bool) {
	if v, ok := p.Values[m.To]; ok {
		return v, true
	}
	return m.Value, true
}

// OddLie sends Value to the odd-numbered recipients below N and the honest
// value to every other one: KindTwoFaced's equivocation, answered by
// parity with no per-recipient table.
type OddLie struct {
	N     int
	Value types.Value
}

// Corrupt implements Strategy.
func (o OddLie) Corrupt(_ types.NodeID, m types.Message) (types.Value, bool) {
	if m.To&1 == 1 && int(m.To) < o.N {
		return o.Value, true
	}
	return m.Value, true
}

// Scripted sends each recipient a fixed value (honest when unscripted) and
// omits messages to recipients in Omit entirely. It is the workhorse of the
// exhaustive small-system adversary enumeration: every deterministic
// per-recipient behaviour of a depth-2 protocol is a Scripted instance.
type Scripted struct {
	Values map[types.NodeID]types.Value
	Omit   types.NodeSet
}

// Corrupt implements Strategy.
func (s Scripted) Corrupt(_ types.NodeID, m types.Message) (types.Value, bool) {
	if s.Omit.Contains(m.To) {
		return types.Default, false
	}
	if v, ok := s.Values[m.To]; ok {
		return v, true
	}
	return m.Value, true
}

// ClaimSender pretends, on every relay, to have received a fixed value from
// the sender regardless of the truth, while round-1 sends (if it is the
// sender) stay honest. This is node A's behaviour in Figure 2(a): "A
// pretends to have received α from S".
type ClaimSender struct {
	Claim types.Value
}

// Corrupt implements Strategy.
func (c ClaimSender) Corrupt(_ types.NodeID, m types.Message) (types.Value, bool) {
	if m.Round >= 2 {
		return c.Claim, true
	}
	return m.Value, true
}

// RandomLie replaces each value with a uniform draw from Domain,
// deterministically per seed. Each faulty node should get its own instance.
type RandomLie struct {
	rng    *rand.Rand
	domain []types.Value
}

// NewRandomLie returns a RandomLie strategy over the given domain. The
// domain always implicitly includes V_d.
func NewRandomLie(seed int64, domain []types.Value) *RandomLie {
	return &RandomLie{rng: rng.New(seed), domain: withDefault(nil, domain)}
}

// Reseed restarts r exactly as NewRandomLie(seed, domain) would start,
// reusing r's generator and domain storage.
func (r *RandomLie) Reseed(seed int64, domain []types.Value) {
	r.rng.Seed(seed)
	r.domain = withDefault(r.domain[:0], domain)
}

// withDefault appends V_d and then domain to dst.
func withDefault(dst, domain []types.Value) []types.Value {
	return append(append(dst, types.Default), domain...)
}

// Corrupt implements Strategy.
func (r *RandomLie) Corrupt(types.NodeID, types.Message) (types.Value, bool) {
	if r.rng.Float64() < 0.1 {
		return types.Default, false // occasional omission
	}
	return r.domain[r.rng.Intn(len(r.domain))], true
}

// CampLie is a colluding strategy: the adversary has assigned every node to
// a camp value, and each faulty node consistently reinforces the recipient's
// camp on every message. Shared by all colluding nodes, it is the strongest
// splitting attack expressible without path awareness.
type CampLie struct {
	Camps map[types.NodeID]types.Value
}

// Corrupt implements Strategy.
func (c CampLie) Corrupt(_ types.NodeID, m types.Message) (types.Value, bool) {
	if v, ok := c.Camps[m.To]; ok {
		return v, true
	}
	return m.Value, true
}

// PathLie corrupts only claims whose path key is scripted; everything else
// is relayed honestly. It enables surgical attacks deep in the EIG tree.
type PathLie struct {
	ByPath map[string]types.Value // path key → value
}

// Corrupt implements Strategy.
func (p PathLie) Corrupt(_ types.NodeID, m types.Message) (types.Value, bool) {
	if v, ok := p.ByPath[m.Path.Key()]; ok {
		return v, true
	}
	return m.Value, true
}

// FlipFlop alternates between two values by round parity — a strategy that
// defeats naive "repeat last value" heuristics.
type FlipFlop struct {
	Even, Odd types.Value
}

// Corrupt implements Strategy.
func (f FlipFlop) Corrupt(_ types.NodeID, m types.Message) (types.Value, bool) {
	if m.Round%2 == 0 {
		return f.Even, true
	}
	return f.Odd, true
}

var (
	_ Strategy = Honest{}
	_ Strategy = Silent{}
	_ Strategy = Crash{}
	_ Strategy = Lie{}
	_ Strategy = TwoFaced{}
	_ Strategy = PerRecipient{}
	_ Strategy = OddLie{}
	_ Strategy = Scripted{}
	_ Strategy = ClaimSender{}
	_ Strategy = (*RandomLie)(nil)
	_ Strategy = CampLie{}
	_ Strategy = PathLie{}
	_ Strategy = FlipFlop{}
)
