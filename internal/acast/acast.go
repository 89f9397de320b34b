// Package acast implements asynchronous reliable broadcast (Bracha-style
// A-Cast) and asynchronous binary agreement (ABA) over the event-scheduler
// core in internal/round.
//
// This is the repo's fourth execution mode and its asynchronous track: where
// the synchronous protocols of §4 lean on deadline-closed rounds — absence
// of a message is detectable and reads as V_d — the asynchronous model has
// no deadlines at all. Messages may be delayed and reordered without bound
// (the scheduler policy is the adversary), so absence is never detectable
// and progress must come from quorum certificates instead:
//
//   - echo quorum  ⌈(n+f+1)/2⌉: enough echoes that two conflicting values
//     cannot both reach it (any two quorums intersect in an honest node);
//   - ready amplification f+1: at least one honest node attests the value,
//     so joining the ready wave is safe without an echo quorum of one's own;
//   - delivery certificate 2f+1 readies: at least f+1 honest readies, which
//     guarantees every honest node eventually assembles the same
//     certificate — totality without any deadline.
//
// Safety holds for f < n/3 under ANY scheduler, including adversarial
// reordering and targeted starvation; only termination can be withheld.
// This is the asymmetry the chaos async axis probes: a starved run ends
// NotTerminated, never Violated. "Beyond One Third Byzantine Failures"
// (PAPERS.md) frames what breaks past n/3 — the echo-quorum intersection
// argument fails and split-brain delivery becomes possible, which the
// beyond-tolerance tests demonstrate deliberately.
//
// Wire encoding: protocols reuse types.Message with the kind packed into
// Round (protocol-owned in asynchronous mode) and the broadcaster identified
// by Path — Path{b} is exactly the EIG reading "the claim originating at b".
package acast

import (
	"fmt"
	"sync"

	"degradable/internal/obs"
	"degradable/internal/round"
	"degradable/internal/types"
)

// Message kinds, carried in types.Message.Round. A-Cast kinds use the value
// directly; ABA packs its internal round number above the kind bits
// (abaRound<<3 | kind), so one Round int carries both.
const (
	KindInit  = 1 // broadcaster's initial send
	KindEcho  = 2 // echo of a received init
	KindReady = 3 // ready attestation (echo quorum or f+1 amplification)
	KindBval  = 4 // ABA binary-value proposal
	KindAux   = 5 // ABA auxiliary vote
)

// kindBits is the width of the kind field inside Message.Round.
const kindBits = 3

// Kind extracts the message kind from a Round value.
func Kind(round int) int { return round & (1<<kindBits - 1) }

// ABARound extracts the ABA round number from a Round value.
func ABARound(round int) int { return round >> kindBits }

// Params fixes the system size and fault tolerance for one asynchronous
// protocol instance. Quorum thresholds derive from it.
type Params struct {
	N int // system size
	F int // tolerated Byzantine faults; safety needs N > 3F
}

// Validate rejects parameter sets the quorum arithmetic cannot support.
func (p Params) Validate() error {
	if p.N <= 0 {
		return fmt.Errorf("acast: n must be positive, got %d", p.N)
	}
	if p.F < 0 {
		return fmt.Errorf("acast: f must be non-negative, got %d", p.F)
	}
	if p.N <= 3*p.F {
		return fmt.Errorf("acast: need n > 3f for safety, got n=%d f=%d", p.N, p.F)
	}
	if p.N > types.MaxNodeSetID+1 {
		return fmt.Errorf("acast: n must be at most %d (NodeSet quorum tallies), got %d", types.MaxNodeSetID+1, p.N)
	}
	return nil
}

// EchoQuorum is ⌈(n+f+1)/2⌉ echoes: two conflicting values cannot both
// reach it, because any two echo quorums share an honest node.
func (p Params) EchoQuorum() int { return (p.N+p.F)/2 + 1 }

// ReadyAmplify is f+1 readies: at least one is honest, so amplifying is
// safe without an echo quorum of one's own.
func (p Params) ReadyAmplify() int { return p.F + 1 }

// ReadyQuorum is 2f+1 readies: the delivery certificate. It contains ≥ f+1
// honest readies, whose amplification eventually brings every honest node
// to the same certificate.
func (p Params) ReadyQuorum() int { return 2*p.F + 1 }

// CounterNames are the unified-snapshot names of the acast counter set, in
// index order: echo broadcasts sent, ready broadcasts sent, delivery
// certificates assembled (echo/ready measure certificate traffic, cert the
// number of completed deliveries).
var CounterNames = []string{"acast_echo_total", "acast_ready_total", "acast_cert_total"}

// Indices into a CounterSet built from CounterNames.
const (
	CounterEcho = iota
	CounterReady
	CounterCert
)

// Config configures one A-Cast node.
type Config struct {
	ID     types.NodeID
	Params Params
	// Broadcasters is the set of nodes A-Casting a value in this run; the
	// empty set means node 0 only. A node decides once it has delivered a
	// value from every broadcaster.
	Broadcasters types.NodeSet
	// Input is this node's value, used only if it is a broadcaster.
	Input types.Value
	// Counters, when non-nil, receives acast_* increments; build it with
	// obs.NewCounterSet(CounterNames...). Sink, when non-nil, receives
	// EvEcho/EvReady/EvCertify quorum-certificate events.
	Counters *obs.CounterSet
	Sink     obs.Sink
}

// tally counts one claimed value's votes.
type tally struct {
	value types.Value
	count int
}

// votes tallies one vote kind (echo or ready) of one instance. Only a
// sender's first vote counts (Bracha's rule), so however many values a
// Byzantine sender invents the tally holds at most n entries; honest senders
// vote once per instance, so the rule costs them nothing. The first value
// voted for is counted inline, so an instance whose votes all name one
// value — every instance of an honest broadcaster — never allocates.
type votes struct {
	from  types.NodeSet // senders whose vote has been counted
	first tally         // the first value voted for; count 0 until a vote
	more  []tally       // every other value, in first-vote order
}

// add counts sender's vote for v and returns v's new count, or 0 if sender
// has already voted.
func (t *votes) add(v types.Value, sender types.NodeID) int {
	if t.from.Contains(sender) {
		return 0
	}
	t.from = t.from.Add(sender)
	if t.first.count == 0 || t.first.value == v {
		t.first.value = v
		t.first.count++
		return t.first.count
	}
	for i := range t.more {
		if t.more[i].value == v {
			t.more[i].count++
			return t.more[i].count
		}
	}
	t.more = append(t.more, tally{value: v, count: 1})
	return 1
}

// instance is one broadcaster's A-Cast state at one node.
type instance struct {
	initSeen  bool
	echoed    bool
	readied   bool
	delivered bool
	value     types.Value // delivered value, once delivered
	// path backs the Path{b} of every message this node sends for the
	// instance, so a send allocates nothing.
	path [1]types.NodeID
	// A Byzantine broadcaster may push two values; the tallies keep both
	// counts and the quorum intersection argument picks at most one winner.
	echoes  votes
	readies votes
}

// outbox is the node's send buffer the handlers emit into: the external
// sends of one Start/OnDeliver call in emit order, and a FIFO of
// self-addressed copies awaiting local application. Broadcast protocols count
// their own echo/ready toward quorums and the scheduler core drops
// self-addressed messages, so the self copies are applied here, synchronously
// and deterministically. Both buffers are reused across calls; the external
// sends are what the call returns, which is why round.AsyncNode's result is
// only borrowed.
//
// The buffers are borrowed from sendPool at the first broadcast, kept across
// calls and handed back by release, which the node's Release calls at the end
// of a run: a run's outboxes cost nothing once the pool is warm.
//
// Emit order is part of the schedule contract (enqueue order is the Seq every
// seeded policy's picks are a function of): breadth-first — the externals the
// delivered message produced, in call order, then the externals produced by
// applying each self copy in FIFO order.
type outbox struct {
	self types.NodeID
	n    int
	buf  *sendBuf // nil until the first broadcast since construction or release
}

// sendBuf is the pooled storage of one outbox.
type sendBuf struct {
	ext  []types.Message
	loop []types.Message // self copies; loop[head:] are still to be applied
	head int
	// usedExt and usedLoop are the longest ext and loop since the buffer
	// was borrowed, up to the last begin: the part release clears.
	usedExt, usedLoop int
}

var sendPool = sync.Pool{New: func() any { return new(sendBuf) }}

func newOutbox(self types.NodeID, n int) outbox {
	return outbox{self: self, n: n}
}

// begin empties the outbox for the next call.
func (o *outbox) begin() {
	if b := o.buf; b != nil {
		b.usedExt, b.usedLoop = max(b.usedExt, len(b.ext)), max(b.usedLoop, len(b.loop))
		b.ext, b.loop, b.head = b.ext[:0], b.loop[:0], 0
	}
}

// broadcast emits m to every node in ID order, the self copy stamped From
// self the way the engine stamps the external ones.
func (o *outbox) broadcast(m types.Message) {
	b := o.buf
	if b == nil {
		b = sendPool.Get().(*sendBuf)
		o.buf = b
	}
	for m.To = 0; int(m.To) < o.n; m.To++ {
		if m.To != o.self {
			b.ext = append(b.ext, m)
		}
	}
	m.From, m.To = o.self, o.self
	b.loop = append(b.loop, m)
}

// next pops the oldest self copy still to be applied. A call is finished
// when there is none: applying one may queue more.
func (o *outbox) next() (types.Message, bool) {
	b := o.buf
	if b == nil || b.head == len(b.loop) {
		return types.Message{}, false
	}
	b.head++
	return b.loop[b.head-1], true
}

// sends returns the call's external sends, in emit order.
func (o *outbox) sends() []types.Message {
	if o.buf == nil {
		return nil
	}
	return o.buf.ext
}

// release hands the buffer back to sendPool, the part this borrow wrote
// cleared first so that no pooled message keeps the node's paths alive. The
// slice the last call returned is invalid afterwards, and the next broadcast
// borrows again.
func (o *outbox) release() {
	b := o.buf
	if b == nil {
		return
	}
	o.begin()
	clear(b.ext[:b.usedExt])
	clear(b.loop[:b.usedLoop])
	b.usedExt, b.usedLoop = 0, 0
	sendPool.Put(b)
	o.buf = nil
}

// Node is one A-Cast participant, implementing round.AsyncNode. It runs one
// reliable-broadcast instance per broadcaster and decides when every
// instance has delivered.
type Node struct {
	cfg Config
	// inst holds the configured broadcasters' instances only, in ID order.
	inst []instance
	out  outbox
	// await counts broadcasters not yet delivered; decision folds once it
	// reaches zero.
	await    int
	decided  bool
	decision types.Value
}

// NewNode builds an A-Cast node. It panics on invalid Params — construction
// happens before any scheduler runs, so a bad configuration is a
// programming error, not a runtime fault.
func NewNode(cfg Config) *Node {
	if err := cfg.Params.Validate(); err != nil {
		panic(err)
	}
	if cfg.Broadcasters.Len() == 0 {
		cfg.Broadcasters = types.NewNodeSet(0)
	}
	k := cfg.Broadcasters.Len()
	return &Node{cfg: cfg, inst: make([]instance, k), out: newOutbox(cfg.ID, cfg.Params.N), await: k}
}

// ID implements round.AsyncNode.
func (n *Node) ID() types.NodeID { return n.cfg.ID }

// Release implements round.Releaser: the node's send buffers go back to
// their pool. The node stays usable; its next broadcast borrows again.
func (n *Node) Release() { n.out.release() }

// instance returns broadcaster b's instance, or nil if b is not a configured
// broadcaster.
func (n *Node) instance(b types.NodeID) *instance {
	if !n.cfg.Broadcasters.Contains(b) {
		return nil
	}
	below := types.NodeSet(1)<<uint(b) - 1
	return &n.inst[n.cfg.Broadcasters.Intersect(below).Len()]
}

// Delivered returns the values A-Cast-delivered so far, keyed by
// broadcaster: the asynchronous receipt vector.
func (n *Node) Delivered() map[types.NodeID]types.Value {
	out := make(map[types.NodeID]types.Value)
	for i, b := range n.cfg.Broadcasters.IDs() {
		if n.inst[i].delivered {
			out[b] = n.inst[i].value
		}
	}
	return out
}

// Decided implements round.AsyncNode: true once every broadcaster's
// instance delivered. The folded value is the lowest-ID broadcaster's
// delivery (the full vector is available via Delivered).
func (n *Node) Decided() (types.Value, bool) { return n.decision, n.decided }

// Start implements round.AsyncNode: a broadcaster sends its init to
// everyone (the self-addressed copy is applied locally — the engine drops
// self-sends).
func (n *Node) Start() []types.Message {
	ins := n.instance(n.cfg.ID)
	if ins == nil {
		return nil
	}
	n.out.begin()
	n.send(ins, n.cfg.ID, KindInit, n.cfg.Input)
	return n.flush()
}

// OnDeliver implements round.AsyncNode.
func (n *Node) OnDeliver(m types.Message) []types.Message {
	n.out.begin()
	n.handle(m)
	return n.flush()
}

// flush applies the queued self copies until quiescence and returns the
// call's external sends.
func (n *Node) flush() []types.Message {
	for m, ok := n.out.next(); ok; m, ok = n.out.next() {
		n.handle(m)
	}
	return n.out.sends()
}

// handle ingests one message and emits the resulting broadcasts into the
// outbox.
func (n *Node) handle(m types.Message) {
	if len(m.Path) != 1 {
		return
	}
	// From is engine-stamped (§4 assumption (c)); the range check only keeps
	// a hand-built message from voting under an identity outside the system.
	if m.From < 0 || int(m.From) >= n.cfg.Params.N {
		return
	}
	b := m.Path[0]
	if int(b) >= n.cfg.Params.N {
		return
	}
	// Only configured broadcasters have instances. Traffic claiming any other
	// origin is Byzantine by construction; tallying it would let a rogue
	// node's self-originated instance deliver and decrement await, flipping
	// decided before every real broadcaster's instance has delivered.
	ins := n.instance(b)
	if ins == nil {
		return
	}
	switch Kind(m.Round) {
	case KindInit:
		// Only the broadcaster itself can originate its init, so a Byzantine
		// node cannot open someone else's instance. First init wins — a
		// two-faced broadcaster splits the echo tallies instead.
		if m.From != b || ins.initSeen {
			return
		}
		ins.initSeen = true
		n.sendEcho(ins, b, m.Value)
	case KindEcho:
		if ins.echoes.add(m.Value, m.From) >= n.cfg.Params.EchoQuorum() && !ins.readied {
			n.observe(obs.EvEcho, b, m.Value)
			n.sendReady(ins, b, m.Value)
		}
	case KindReady:
		count := ins.readies.add(m.Value, m.From)
		if count == 0 {
			return
		}
		if count >= n.cfg.Params.ReadyAmplify() && !ins.readied {
			n.observe(obs.EvReady, b, m.Value)
			n.sendReady(ins, b, m.Value)
		}
		if count >= n.cfg.Params.ReadyQuorum() && !ins.delivered {
			ins.delivered = true
			ins.value = m.Value
			if n.cfg.Counters != nil {
				n.cfg.Counters.Inc(CounterCert)
			}
			n.observe(obs.EvCertify, b, m.Value)
			n.await--
			if n.await == 0 {
				n.decided = true
				n.decision = n.inst[0].value
			}
		}
	}
}

// send broadcasts one of instance b's messages.
func (n *Node) send(ins *instance, b types.NodeID, kind int, v types.Value) {
	ins.path[0] = b
	n.out.broadcast(types.Message{Round: kind, Path: ins.path[:], Value: v})
}

// sendEcho marks the instance echoed and broadcasts the echo.
func (n *Node) sendEcho(ins *instance, b types.NodeID, v types.Value) {
	if ins.echoed {
		return
	}
	ins.echoed = true
	if n.cfg.Counters != nil {
		n.cfg.Counters.Inc(CounterEcho)
	}
	n.send(ins, b, KindEcho, v)
}

// sendReady marks the instance readied and broadcasts the ready.
func (n *Node) sendReady(ins *instance, b types.NodeID, v types.Value) {
	ins.readied = true
	if n.cfg.Counters != nil {
		n.cfg.Counters.Inc(CounterReady)
	}
	n.send(ins, b, KindReady, v)
}

// observe emits the quorum-certificate trace event.
func (n *Node) observe(kind obs.EventKind, b types.NodeID, v types.Value) {
	if n.cfg.Sink != nil {
		n.cfg.Sink.Emit(obs.Event{Kind: kind, Node: int16(n.cfg.ID), A: int64(b), B: int64(v)})
	}
}

var (
	_ round.AsyncNode = (*Node)(nil)
	_ round.Releaser  = (*Node)(nil)
)
