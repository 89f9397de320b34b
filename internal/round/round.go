// Package round is the delivery core every execution mode of the protocol
// shares: sends are stamped with their true source and handed to per-node
// step functions in a deterministic order — synchronously through the
// Channel/Expander interposition, asynchronously straight from the
// scheduler's queue, whose policy is the adversary. The package has no
// opinion on *how* the schedule is driven — goroutines, an inline loop, one
// OS process per node exchanging frames over TCP, or a barrier-free
// asynchronous run.
//
// The synchronous world of the paper's §4 is deadline-closed rounds: what a
// node sends in round r is read by its recipients in round r+1, and a send
// that has not been delivered when the round closes is absent. An Engine
// realizes that with two sets of inboxes. Collect routes each accepted send
// through the channel at once and appends the surviving copies to the
// recipient's inbox in the *next* set; Deliver, the barrier a Driver places
// between rounds, flips the sets. The asynchronous world has no barrier and
// no channel: RunAsync pops one policy-chosen delivery at a time from a
// Scheduler (FIFO, seeded reordering, unbounded delay, targeted starvation)
// and hands it to the recipient, and message-driven AsyncNodes — quorum
// certificates instead of deadlines (see internal/acast) — decide whenever
// their certificates complete.
//
// Both modes capture the assumptions of the paper's §4 as
// machine-checkable contracts, with (b) realized per mode:
//
//	(a) messages between fault-free nodes are delivered correctly — every
//	    collected message is delivered unless the configured Channel drops
//	    it (or, asynchronously, the policy withholds it forever);
//	(b) absence of a message is detectable — synchronously, a message not
//	    delivered when its round closes never enters the inbox and
//	    protocols substitute the default value V_d; asynchronously absence
//	    is never detectable, which is exactly why the A-Cast track replaces
//	    deadlines with quorum certificates;
//	(c) the source of a message is identified — Collect (and the async
//	    run's collect) stamps every message's From field with the true
//	    sender, so even Byzantine nodes cannot spoof their identity.
//
// A bulk lane carries the same exchange's relays without the messages. It
// runs only off the Trace/RecordViews/Channel paths that observe single
// messages, and only when every node takes slabs of one shape
// (LaneReceiver: the honest relay node and the Byzantine wrapper alike).
// Then, for each relayer (LaneSender), Collect accounts the messages its
// round stands for arithmetically and records a slab, and Deliver has every
// other node store it at the barrier, before the next round's Step. An
// honest relayer's slab is its tree's previous level (LaneNode); a
// wrapper's is one vector per recipient of the values its strategy chose,
// one Corrupt call per scheduled send as on the message path, with dropped
// sends absent. Assumption (c) holds there too: the slab's source is the
// node at the Collect slot, the engine's own record of who sent, never a
// field the node supplies.
//
// An Engine holds one synchronous run's state: the node complement, the
// channel, the two inbox sets, and the accounting that becomes the Result.
// A Driver walks the engine through its schedule:
//
//	for r := 1; r <= e.Rounds(); r++ {
//		e.Deliver()                                  // open round r
//		for i := 0; i < e.N(); i++ {                 // any interleaving
//			out := e.Node(i).Step(r, e.Inbox(i))
//			e.Collect(i, r, out)                 // serialized
//		}
//	}
//	e.Deliver()                                          // final delivery
//	for i := 0; i < e.N(); i++ { e.Node(i).Finish(e.Inbox(i)) }
//
// Step calls may run concurrently (each node is only ever stepped by one
// goroutine at a time), and Collect may run while other nodes' Step calls
// are still reading their inboxes — it writes the other set. Deliver,
// Collect, and Finalize must be serialized by the driver, and Deliver needs
// every Step of the round to have returned. A seeded Channel draws once per
// call, so the order of Collect calls is part of a run's identity: the
// in-tree drivers collect in node-ID order. The in-process driver is
// Reference (its goroutine-per-node twin lives in the package's tests, where
// the race detector steps nodes concurrently); the distributed driver in
// internal/cluster realizes the same deadline-closed rounds against real
// sockets (its per-round hold-back buffer and wall clock deadline are the
// physical form of the barrier, with the same inbox sorting, sender
// stamping, and byte accounting); the asynchronous driver is RunAsync under
// internal/acast's protocols.
package round

import (
	"fmt"

	"degradable/internal/obs"
	"degradable/internal/types"
)

// Node is a protocol participant. The engine calls Step for rounds 1..R,
// passing the messages sent to the node in the previous round (round 1 gets
// an empty inbox); the returned messages are delivered at the start of the
// next round. After round R, Finish delivers the final batch, then Decide is
// read. Implementations need not be safe for concurrent use; every driver
// serializes all calls to a given node.
//
// The inbox slice is only valid for the duration of the Step or Finish call:
// drivers reuse the delivery buffers across rounds. Implementations that
// retain messages must copy them (all in-tree nodes absorb values into their
// EIG tree and retain nothing).
//
// Drivers may differ in physical delivery (shared memory versus TCP frames),
// so implementations must tolerate exactly what the paper's network model
// allows: a well-formed message may arrive more than once (duplication
// faults; ingestion must be idempotent), may never arrive (detectable
// absence; substitute V_d), and inbox ordering is always the deterministic
// types.SortMessages order regardless of arrival order.
type Node interface {
	ID() types.NodeID
	Step(round int, inbox []types.Message) []types.Message
	Finish(inbox []types.Message)
	Decide() types.Value
}

// LaneReceiver is the receive-only half of the bulk lane, implemented by
// the honest relay node and, delegating to the honest node it holds, by the
// Byzantine wrapper: a node that takes a relayer's round-r relays as a
// slab at the barrier, when no Step is in flight, and stores them exactly
// as absorbing the messages would.
type LaneReceiver interface {
	Node
	// LaneShape is a comparable key of the node's slab layout, or nil when
	// the node cannot take the lane.
	LaneShape() any
	// TakeSlab stores src's round-r relays to this node exactly as
	// absorbing the messages would.
	TakeSlab(src LaneSender, round int)
}

// LaneSender is a LaneReceiver that also relays by slab: the honest relay
// node, and the Byzantine wrapper, whose slab holds its strategy's values.
// The engine arms the lane at NewEngine and Restart — every LaneSender is
// told its peers, every other node when the lane is on and an empty set
// when it is off — and then, per relayer and round, counts the messages
// the slab stands for and has every other node take it at the barrier.
type LaneSender interface {
	LaneReceiver
	// SetLanePeers names the nodes that take this node's relays as slabs,
	// every other node or none; Step's outbox must leave them out.
	SetLanePeers(peers types.NodeSet)
	// LaneSent is the number of messages the node's round-r slab stands
	// for, over every recipient; each carries an r-element path. It is
	// read by Collect right after the round's Step.
	LaneSent(round int) int
}

// LaneNode is a LaneSender whose slab is its own tree: the honest relay
// node, which sends every recipient the same claims. A node whose sends a
// strategy corrupts must not be one.
type LaneNode interface {
	LaneSender
	// LaneClaims is the number of messages the node's round-r outbox sends
	// each recipient, lane peers included; each carries an r-element path.
	LaneClaims(round int) int
}

// Channel interposes on message delivery. Deliver may rewrite the message
// (e.g. a relay network corrupting values in flight) or drop it entirely by
// returning false.
type Channel interface {
	Deliver(m types.Message) (types.Message, bool)
}

// Expander is an optional Channel extension for channels that can deliver a
// message more than once (duplication faults, as injected by the chaos
// engine). When the configured Channel implements Expander, the engine calls
// DeliverAll instead of Deliver; every returned message is delivered and
// counted. An empty slice drops the message. The returned slice is valid
// until the next DeliverAll: an Expander may reuse one buffer for every call.
type Expander interface {
	Channel
	DeliverAll(m types.Message) []types.Message
}

// PerfectChannel delivers every message unchanged: the complete-graph,
// fully synchronous assumption of §4.
type PerfectChannel struct{}

// Deliver implements Channel.
func (PerfectChannel) Deliver(m types.Message) (types.Message, bool) { return m, true }

var _ Channel = PerfectChannel{}

// Config controls a run. It is pure round semantics: driver selection (and
// any driver-specific tuning such as round deadlines) lives with the driver.
type Config struct {
	// Rounds is the number of message rounds (R). The engine performs R
	// Step deliveries plus a Finish delivery per node.
	Rounds int
	// Channel interposes on deliveries; nil means PerfectChannel.
	Channel Channel
	// RecordViews captures each node's full delivered-message transcript in
	// the result. Used by the lower-bound indistinguishability checks and
	// the cross-driver differential tests.
	RecordViews bool
	// Trace, when non-nil, observes every delivered message, in delivery
	// order, before the Step calls of the round that reads it. It is called
	// from Collect, so other nodes' Step calls of the sending round may still
	// be running on a concurrent driver.
	Trace func(types.Message)
	// Sink, when non-nil, receives structured round events (round open and
	// close) regardless of which driver runs the schedule — the event stream
	// is a function of the round semantics alone, so deterministic drivers
	// produce identical streams.
	Sink obs.Sink
}

// Names of the engine's obs counters, in index order.
const (
	CounterMessages  = iota // sends accepted by Collect
	CounterDelivered        // messages delivered into inboxes
	CounterBytes            // approximate wire volume delivered
	numCounters
)

// CounterNames are the unified-snapshot names of the engine's counters.
var CounterNames = []string{"round_messages_total", "round_delivered_total", "round_bytes_total"}

// Result summarizes a run.
type Result struct {
	// Decisions maps every node to its decided value.
	Decisions map[types.NodeID]types.Value
	// Messages is the total number of messages sent (before channel drops).
	Messages int
	// Delivered is the total number of messages actually delivered.
	Delivered int
	// Bytes approximates the wire volume of delivered traffic: 8 bytes of
	// value plus 4 per relay-path element per message.
	Bytes int
	// PerRound is the number of messages sent in each round, indexed from
	// round 1 at position 0.
	PerRound []int
	// Views is each node's delivered transcript (only when RecordViews).
	Views map[types.NodeID][]types.Message
}

// MessageBytes is the wire-volume approximation used by every driver's
// accounting: 8 bytes of value plus 4 per relay-path element.
func MessageBytes(m types.Message) int { return 8 + 4*len(m.Path) }

// Driver executes an engine's synchronous schedule: it owns the placement
// of the round barrier. Drive must follow the contract documented in the
// package comment — R iterations of Deliver (close the round, flip the
// inboxes) / Step / Collect, a final Deliver, then Finish for every node —
// and is free to choose whatever concurrency it wants for the Step calls.
// Run handles engine construction and Finalize; a Driver only supplies the
// control flow. The asynchronous execution mode has no Driver because it
// has no barrier to place: RunAsync pulls deliveries from a Scheduler one
// policy decision at a time.
type Driver interface {
	Drive(e *Engine) error
}

// Engine is one synchronous run's round state: nodes, the channel
// interposition, two sets of inboxes, and accounting. Methods are not safe
// for concurrent use except Node and Inbox (immutable between Deliver
// calls); drivers serialize Deliver and Collect.
type Engine struct {
	cfg  Config
	byID []Node

	// expander is cfg.Channel when it can deliver more than one copy.
	expander Expander

	res      *Result
	counters *obs.CounterSet
	curRound int

	// cur is what Inbox hands the round's Step calls; next is where route
	// puts the copies the following round will read. Two sets, because a
	// driver may Collect node i's sends while other nodes' Step calls are
	// still reading cur (the concurrent test twin does): nothing but Deliver, at the
	// barrier, ever touches cur.
	cur, next []inbox
	// delivered and bytes count the copies routed into next; Deliver moves
	// them into the counters when the round they belong to opens.
	delivered, bytes int

	// lane is empty unless the run takes the bulk lane (see RestartOn and
	// armLane). Then lane[i] holds node i as a receiver and as a relayer;
	// slabs holds the (relayer, round) pairs Collect recorded for Deliver
	// to apply.
	lane  []laneSlot
	slabs []slab
}

type laneSlot struct {
	rx LaneReceiver
	tx LaneSender // nil for a node that only takes slabs
}

type slab struct{ from, round int }

// inbox is one node's deliveries for one round. unsorted records that some
// append broke SortMessages order, which is the only case Deliver sorts:
// slices.SortFunc returns a non-decreasing slice as it found it, equal keys
// included, so skipping the call there is byte-identical to making it.
type inbox struct {
	msgs     []types.Message
	unsorted bool
}

func (b *inbox) reset() { b.msgs, b.unsorted = b.msgs[:0], false }

// NewEngine validates the node complement and builds a run's engine. Nodes
// must have distinct IDs in [0, len(nodes)).
func NewEngine(nodes []Node, cfg Config) (*Engine, error) {
	n := len(nodes)
	if n == 0 {
		return nil, fmt.Errorf("round: no nodes")
	}
	if cfg.Rounds < 1 {
		return nil, fmt.Errorf("round: rounds must be >= 1, got %d", cfg.Rounds)
	}
	e := &Engine{
		cfg:  cfg,
		byID: make([]Node, n),
		res: &Result{
			Decisions: make(map[types.NodeID]types.Value, n),
			PerRound:  make([]int, cfg.Rounds),
		},
		// Both inbox sets are allocated once and reused every round: each
		// per-node slice is truncated and refilled in place, so after the
		// first couple of rounds delivery stops allocating entirely. Safe
		// because the round barrier guarantees no Step/Finish call is in
		// flight when a set is truncated and nodes do not retain their inbox
		// (see the Node contract).
		cur:      make([]inbox, n),
		next:     make([]inbox, n),
		counters: obs.NewCounterSet(CounterNames...),
	}
	if cfg.RecordViews {
		e.res.Views = make(map[types.NodeID][]types.Message, n)
	}
	if err := e.RestartOn(nodes, cfg.Channel); err != nil {
		return nil, err
	}
	return e, nil
}

// armLane keeps the lane on only when every node is a LaneReceiver of one
// non-nil shape, and tells every LaneSender its peers — every other node, or
// none — so a node that was armed under an earlier engine or run stops
// leaving recipients out when this run takes no lane.
func (e *Engine) armLane() {
	var shape any
	for i := range e.lane {
		rx, ok := e.byID[i].(LaneReceiver)
		var s any
		if ok {
			s = rx.LaneShape()
		}
		if i == 0 {
			shape = s
		}
		if s == nil || s != shape {
			e.lane = e.lane[:0]
			break
		}
		tx, _ := rx.(LaneSender)
		e.lane[i] = laneSlot{rx: rx, tx: tx}
	}
	var peers types.NodeSet
	if len(e.lane) > 0 {
		peers = types.NodeSet(1)<<len(e.byID) - 1
	}
	for i, nd := range e.byID {
		if ln, ok := nd.(LaneSender); ok {
			ln.SetLanePeers(peers.Remove(types.NodeID(i)))
		}
	}
}

// Restart is RestartOn with the engine's current channel.
func (e *Engine) Restart(nodes []Node) error { return e.RestartOn(nodes, e.cfg.Channel) }

// RestartOn rearms the engine for a fresh run over channel ch, retaining
// every allocated buffer (both inbox sets, result maps, the lane's). nodes
// replaces the complement — it must have the same count, since the shape
// (and Rounds) is fixed at construction; entries may differ from the
// previous run (a warm instance swaps honest nodes for Byzantine wrappers
// per run). NewEngine arms its first run here too, so the bulk lane goes on
// or off by one rule. A restarted engine is observationally identical to
// one newly constructed with ch, which is what lets a warm instance run
// instance after instance without allocating.
func (e *Engine) RestartOn(nodes []Node, ch Channel) error {
	n := len(e.byID)
	if len(nodes) != n {
		return fmt.Errorf("round: restart with %d nodes, engine built for %d", len(nodes), n)
	}
	clear(e.byID)
	for _, nd := range nodes {
		id := nd.ID()
		if id < 0 || int(id) >= n {
			return fmt.Errorf("round: node ID %d out of range [0,%d)", int(id), n)
		}
		if e.byID[int(id)] != nil {
			return fmt.Errorf("round: duplicate node ID %d", int(id))
		}
		e.byID[int(id)] = nd
	}
	clear(e.res.Decisions)
	e.res.Messages, e.res.Delivered, e.res.Bytes = 0, 0, 0
	clear(e.res.PerRound)
	clear(e.res.Views)
	e.counters.Reset()
	e.curRound = 0
	e.delivered, e.bytes = 0, 0
	for i := range e.cur {
		e.cur[i].reset()
		e.next[i].reset()
	}
	e.slabs = e.slabs[:0]
	// The bulk lane's one rule: it runs on a nil or PerfectChannel with no
	// Trace and no RecordViews — the settings under which a message is
	// never seen, dropped or rewritten on its own — over a complement that
	// fits a NodeSet and whose every node takes slabs of one shape (see
	// armLane). Turning it off keeps its buffer.
	e.cfg.Channel = ch
	e.expander, _ = ch.(Expander)
	_, perfect := ch.(PerfectChannel)
	on := (ch == nil || perfect) && e.cfg.Trace == nil && !e.cfg.RecordViews && n <= types.MaxNodeSetID+1
	switch {
	case !on:
		e.lane = e.lane[:0]
	case cap(e.lane) < n:
		e.lane = make([]laneSlot, n)
		e.slabs = make([]slab, 0, n)
	default:
		e.lane = e.lane[:n]
	}
	e.armLane()
	return nil
}

// N returns the node count.
func (e *Engine) N() int { return len(e.byID) }

// Rounds returns the number of message rounds.
func (e *Engine) Rounds() int { return e.cfg.Rounds }

// Node returns the participant with ID i.
func (e *Engine) Node(i int) Node { return e.byID[i] }

// Deliver is the round barrier. The round's deliveries are already in the
// next inbox set — Collect routed them — so closing the round is a flip of
// the two sets. Each inbox then ends in SortMessages order, views are
// recorded, and the round-close and round-open events are emitted. It must
// be called exactly once per round (before the round's Step calls) and once
// more before the Finish calls, with no Step or Finish in flight: the set the
// previous round read is truncated here to take the next one's deliveries.
func (e *Engine) Deliver() {
	for _, sl := range e.slabs {
		src := e.lane[sl.from].tx
		for j := range e.lane {
			if j != sl.from {
				e.lane[j].rx.TakeSlab(src, sl.round)
			}
		}
	}
	e.slabs = e.slabs[:0]
	e.cur, e.next = e.next, e.cur
	for i := range e.next {
		e.next[i].reset()
	}
	for i := range e.cur {
		b := &e.cur[i]
		if b.unsorted {
			types.SortMessages(b.msgs)
		}
		if e.cfg.RecordViews {
			e.res.Views[types.NodeID(i)] = append(e.res.Views[types.NodeID(i)], b.msgs...)
		}
	}
	delivered := e.delivered
	e.counters.Add(CounterDelivered, uint64(delivered))
	e.counters.Add(CounterBytes, uint64(e.bytes))
	e.delivered, e.bytes = 0, 0
	if e.cfg.Sink != nil && e.curRound > 0 {
		e.cfg.Sink.Emit(obs.Event{
			Kind: obs.EvRoundClose, Node: -1, Round: int32(e.curRound),
			A: int64(e.sentIn(e.curRound)),
		})
	}
	e.curRound++
	if e.cfg.Sink != nil {
		e.cfg.Sink.Emit(obs.Event{
			Kind: obs.EvRoundOpen, Node: -1, Round: int32(e.curRound),
			A: int64(delivered),
		})
	}
}

// sentIn returns the number of sends collected in round r (0 for the final
// delivery-only phase past round R).
func (e *Engine) sentIn(r int) int {
	if r >= 1 && r <= len(e.res.PerRound) {
		return e.res.PerRound[r-1]
	}
	return 0
}

// Inbox returns node i's current delivery (valid until the next Deliver).
func (e *Engine) Inbox(i int) []types.Message { return e.cur[i].msgs }

// Collect stamps and validates node i's round sends, enforcing assumption
// (c): the true source is stamped, so a Byzantine node cannot spoof its
// identity. Malformed and self-addressed sends are dropped. Each accepted
// send then goes through the channel at once and its surviving copies are
// routed into the next round's inboxes, so the channel sees sends in collect
// order — node-ID order × outbox order under the in-tree drivers — which is
// the sequence a seeded channel's draws are pinned to. out is read, never
// written: nodes reuse their outbox templates. A lane member's relays to
// its peers are not in out: Collect counts them as the message path would
// have (every send delivered, since the lane runs only where the channel
// drops nothing) and records one slab for Deliver.
func (e *Engine) Collect(i, round int, out []types.Message) {
	n := len(e.byID)
	from := types.NodeID(i)
	sent := 0
	for k := range out {
		m := out[k]
		m.From = from
		m.Round = round
		if m.To < 0 || int(m.To) >= n || m.To == from {
			continue // drop malformed or self-addressed sends
		}
		sent++
		switch {
		case e.expander != nil:
			copies := e.expander.DeliverAll(m)
			for c := range copies {
				e.route(&copies[c])
			}
		case e.cfg.Channel != nil:
			if dm, ok := e.cfg.Channel.Deliver(m); ok {
				e.route(&dm)
			}
		default:
			e.route(&m)
		}
	}
	if len(e.lane) > 0 && e.lane[i].tx != nil {
		if k := e.lane[i].tx.LaneSent(round); k > 0 {
			sent += k
			e.delivered += k
			e.bytes += k * (8 + 4*round)
			e.slabs = append(e.slabs, slab{from: i, round: round})
		}
	}
	if sent > 0 {
		e.counters.Add(CounterMessages, uint64(sent))
		e.res.PerRound[round-1] += sent
	}
}

// route puts one delivered copy into its destination's inbox for the next
// round, counts it, and shows it to Config.Trace. It writes the next set
// only (see Engine.cur). An append that is not in SortMessages order after
// the inbox's last message marks the inbox for sorting at the barrier.
func (e *Engine) route(dm *types.Message) {
	e.delivered++
	e.bytes += MessageBytes(*dm)
	if e.cfg.Trace != nil {
		e.cfg.Trace(*dm)
	}
	b := &e.next[int(dm.To)]
	if k := len(b.msgs); k > 0 && !b.unsorted && types.CompareMessages(&b.msgs[k-1], dm) > 0 {
		b.unsorted = true
	}
	b.msgs = append(b.msgs, *dm)
}

// Finalize reads every node's decision and returns the run's result,
// materializing the obs-backed accounting into the Result view. It must be
// called once, after the driver's Finish calls.
func (e *Engine) Finalize() *Result {
	if e.cfg.Sink != nil && e.curRound > 0 {
		e.cfg.Sink.Emit(obs.Event{
			Kind: obs.EvRoundClose, Node: -1, Round: int32(e.curRound),
			A: int64(e.sentIn(e.curRound)),
		})
	}
	for i, nd := range e.byID {
		e.res.Decisions[types.NodeID(i)] = nd.Decide()
	}
	e.res.Messages = int(e.counters.Get(CounterMessages))
	e.res.Delivered = int(e.counters.Get(CounterDelivered))
	e.res.Bytes = int(e.counters.Get(CounterBytes))
	return e.res
}

// Telemetry returns the engine's live accounting as the unified snapshot
// schema (readable mid-run, unlike the Result view).
func (e *Engine) Telemetry() obs.Snapshot { return e.counters.Snapshot() }

// Run executes the protocol to completion under the given driver and
// returns the result. It is the one-call form of NewEngine + Drive +
// Finalize that protocol packages use without naming a concrete driver.
func Run(nodes []Node, cfg Config, d Driver) (*Result, error) {
	if d == nil {
		return nil, fmt.Errorf("round: nil driver")
	}
	e, err := NewEngine(nodes, cfg)
	if err != nil {
		return nil, err
	}
	if err := d.Drive(e); err != nil {
		return nil, err
	}
	return e.Finalize(), nil
}

// Reference is the canonical inline schedule: every node stepped on the
// calling goroutine, in node-ID order. It is the executable form of the
// Driver contract and the baseline every other driver must be
// result-identical to (the round barrier already serializes all
// interleavings), and the schedule every in-process caller runs: a
// goroutine per node would only add hand-offs the barrier then undoes.
type Reference struct{}

var _ Driver = Reference{}

// Drive implements Driver.
func (Reference) Drive(e *Engine) error {
	n := e.N()
	for r := 1; r <= e.Rounds(); r++ {
		e.Deliver()
		for i := 0; i < n; i++ {
			e.Collect(i, r, e.Node(i).Step(r, e.Inbox(i)))
		}
	}
	e.Deliver()
	for i := 0; i < n; i++ {
		e.Node(i).Finish(e.Inbox(i))
	}
	return nil
}
