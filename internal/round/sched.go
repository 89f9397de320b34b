package round

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"degradable/internal/types"
)

// Pending is one queued send awaiting delivery: the message plus the global
// enqueue ticket the scheduler stamped it with. The ticket is a send's
// position in the causal stream; seeded per-message decisions (Delay's holds)
// are a function of it, never of where the send happens to sit in a policy's
// storage.
type Pending struct {
	M   types.Message
	Seq uint64
}

// Policy chooses which queued send the scheduler delivers next. FIFO,
// Reorder, Delay, Adversarial, and Starve order deliveries with no barrier at
// all; RunAsync drives them one delivery at a time, which is the
// asynchronous model (unbounded delay and reordering, §6.1's relaxed-timeout
// half-step taken the rest of the way). The synchronous world needs no
// policy: the Engine routes each send in collect order as it is collected,
// and the drivers' barrier (Engine.Deliver once per round) closes each round
// at its deadline — the paper's §4 model.
//
// A Policy is a queue discipline that owns its storage: the scheduler pushes
// every send in enqueue order and pops the policy's pick, so each policy
// keeps the one structure that makes its own selection rule cheap. The
// schedule a policy produces is defined by that rule alone (stated on each
// type below) and is part of every recorded repro; the storage behind it is
// not. The methods are unexported because the set of policies is closed —
// scenario strings name them through ParsePolicy — and a policy value serves
// one Scheduler at a time.
//
// Policies may be stateful (seeded rngs); a fresh policy plus an equal seed
// replays the identical schedule.
type Policy interface {
	// push queues one send; calls arrive in ascending Seq order.
	push(p Pending)
	// pop removes and returns the policy's pick, or false to deliver nothing:
	// the queue is empty, or the policy withholds every remaining send (the
	// adversary refuses to schedule anything; the run ends undecided). A
	// policy that draws from an rng must not draw on an empty queue.
	pop() (types.Message, bool)
	// len counts the sends pushed and not yet popped, withheld ones included.
	len() int
	// rewind discards the queued sends and keeps the buffers (and the rng
	// state: a reused policy continues its seeded stream). It is not named
	// reset: the linker keeps every reachable method whose name and signature
	// match an interface method that is called, unexported names included, so
	// a reset() here held the runtime's, encoding/json's and eig's inlined
	// reset methods in the binary and moved the code of packages this one
	// does not touch.
	rewind()
}

// blockLen is the most sends one block of a queue holds.
const blockLen = 128

// blocks is the storage every slice-shaped discipline keeps its sends in:
// enqueue order, cut into blocks of at most blockLen, so a queue grows one
// block at a time (nothing is copied to make room, and an emptied block is
// reused), memory follows the live queue rather than the run's history, and
// a queue that never outgrows one block is a plain slice.
type blocks struct {
	live  [][]Pending // enqueue order across and within; only a sole block may be empty
	spare [][]Pending // emptied blocks, kept for reuse
	n     int
}

func (q *blocks) push(p Pending) {
	last := len(q.live) - 1
	if last < 0 || len(q.live[last]) == blockLen {
		var b []Pending // a first block grows by append: short runs stay small
		if k := len(q.spare) - 1; k >= 0 {
			b, q.spare = q.spare[k], q.spare[:k]
		} else if last >= 0 {
			b = make([]Pending, 0, blockLen)
		}
		q.live = append(q.live, b)
		last++
	}
	q.live[last] = append(q.live[last], p)
	q.n++
}

// retire moves block i, whose sends are gone or copied out, to the spares.
func (q *blocks) retire(i int) {
	q.spare = append(q.spare, q.live[i][:0])
	q.live = q.live[:i+copy(q.live[i:], q.live[i+1:])]
}

func (q *blocks) len() int { return q.n }

func (q *blocks) rewind() {
	for _, b := range q.live {
		q.spare = append(q.spare, b[:0])
	}
	q.live, q.n = q.live[:0], 0
}

// fifoQueue is the enqueue-order discipline: the oldest send is at a cursor
// into the first block, so push and pop are O(1).
type fifoQueue struct {
	blocks
	head int
}

func (q *fifoQueue) pop() (types.Message, bool) {
	if q.n == 0 {
		return types.Message{}, false
	}
	b := q.live[0]
	m := b[q.head].M
	q.n--
	if q.head++; q.head == len(b) {
		q.head = 0
		if len(q.live) > 1 {
			q.retire(0)
		} else {
			q.live[0] = b[:0] // drained: rewind instead of growing
		}
	}
	return m, true
}

func (q *fifoQueue) rewind() {
	q.blocks.rewind()
	q.head = 0
}

// FIFO delivers in enqueue order with no barrier: the kindest asynchronous
// scheduler, and the baseline the adversarial ones are benchmarked against.
type FIFO struct{ fifoQueue }

// blockQueue is the order-statistic discipline behind Reorder and
// Adversarial: the k-th live send in enqueue order is found by walking block
// lengths and removed by one copy inside its block, without moving the rest
// of the queue. Neighbours that fit in one block are joined, so blocks stay
// at least half full on average however the removals fall.
type blockQueue struct{ blocks }

// take removes and returns the k-th live send in enqueue order, 0 ≤ k < n.
func (q *blockQueue) take(k int) types.Message {
	bi := len(q.live) - 1
	if k == q.n-1 {
		k = len(q.live[bi]) - 1 // the newest send: no walk
	} else {
		for bi = 0; k >= len(q.live[bi]); bi++ {
			k -= len(q.live[bi])
		}
	}
	b := q.live[bi]
	m := b[k].M
	q.live[bi] = b[:k+copy(b[k:], b[k+1:])]
	q.n--
	if !q.join(bi) {
		q.join(bi - 1)
	}
	return m
}

// join folds block i+1 into block i when the two fit in one, and reports
// whether it did. A join copies only the block it retires, and only a push
// adds a block.
func (q *blockQueue) join(i int) bool {
	if i < 0 || i+1 >= len(q.live) || len(q.live[i])+len(q.live[i+1]) > blockLen {
		return false
	}
	q.live[i] = append(q.live[i], q.live[i+1]...)
	q.retire(i + 1)
	return true
}

// Reorder delivers a uniformly random queued send each step, seeded: the
// canonical "messages arrive in any order" adversary. The rule: draw
// k = Intn(len) and take the k-th remaining send in enqueue order.
type Reorder struct {
	rng *rand.Rand
	blockQueue
}

// NewReorder returns a seeded uniform-reordering policy.
func NewReorder(seed int64) *Reorder {
	return &Reorder{rng: rand.New(rand.NewSource(seed))}
}

func (p *Reorder) pop() (types.Message, bool) {
	if p.n == 0 {
		return types.Message{}, false
	}
	return p.take(p.rng.Intn(p.n)), true
}

// Adversarial is the worst-case seeded scheduler the async benchmarks run
// against: it favours the newest queued send (maximal reordering — late
// messages overtake the whole causal prefix) and otherwise picks uniformly,
// so quorum certificates assemble from the least convenient interleavings.
// The rule: draw Intn(2); on 0 take the newest send, otherwise draw
// k = Intn(len) and take the k-th remaining send in enqueue order.
type Adversarial struct {
	rng *rand.Rand
	blockQueue
}

// NewAdversarial returns a seeded adversarial (LIFO-biased) policy.
func NewAdversarial(seed int64) *Adversarial {
	return &Adversarial{rng: rand.New(rand.NewSource(seed))}
}

func (p *Adversarial) pop() (types.Message, bool) {
	if p.n == 0 {
		return types.Message{}, false
	}
	k := p.n - 1
	if p.rng.Intn(2) != 0 {
		k = p.rng.Intn(p.n)
	}
	return p.take(k), true
}

// held is one Delay entry: a send and the position it is released at.
type held struct {
	release uint64
	p       Pending
}

func (a *held) before(b *held) bool {
	return a.release < b.release || a.release == b.release && a.p.Seq < b.p.Seq
}

// holdHeap is a binary min-heap on (release, Seq).
type holdHeap []held

func (h *holdHeap) push(e held) {
	s := *h
	if len(s) == cap(s) {
		// Doubling: append's gentler growth past 256 entries would copy,
		// and leave behind as garbage, twice as much on the way up.
		s = append(make(holdHeap, 0, max(16, 2*len(s))), s...)
	}
	s = append(s, e)
	i := len(s) - 1
	for i > 0 {
		up := (i - 1) / 2
		if !e.before(&s[up]) {
			break
		}
		s[i], i = s[up], up
	}
	s[i] = e
	*h = s
}

func (h *holdHeap) pop() held {
	s := *h
	top, e := s[0], s[len(s)-1]
	s = s[:len(s)-1]
	*h = s
	if len(s) == 0 {
		return top
	}
	i := 0
	for c := 1; c < len(s); c = 2*i + 1 {
		if c+1 < len(s) && s[c+1].before(&s[c]) {
			c++
		}
		if !s[c].before(&e) {
			break
		}
		s[i], i = s[c], c
	}
	s[i] = e
	return top
}

// Delay holds each send back for a seeded per-message number of scheduler
// ticks (up to Max), then delivers ready sends in enqueue order. Every send
// is eventually delivered — delay is unbounded relative to the protocol but
// the schedule is fair — so fault-free runs still terminate, just far from
// FIFO order.
//
// The rule, a tick being one pick and a send being released at tick
// Seq+hold(Seq): take the lowest-Seq released send, else (so the queue
// always progresses) the send with the lowest (release, Seq).
//
// A scheduler numbers sends and picks from zero together, and that makes the
// second clause the whole rule. Take any queued send X. Every pick so far
// took a send that was either queued before X, so has a smaller Seq, or beat
// X to the front, so was released no later than X; as a send's Seq never
// exceeds its release, all of them have Seq ≤ release(X), and none is X: at
// most release(X) picks have been made. The tick never passes a queued
// send's release, a send is "released" only at the tick that equals the
// lowest release in the queue, and lowest (release, Seq) picks exactly it.
// So the discipline is one min-heap on (release, Seq), the hold hashed once
// at push, and needs no clock. The test oracle keeps the two-clause form.
type Delay struct {
	seed int64
	// Max is the largest per-message hold in ticks (default 16).
	Max uint64

	heap holdHeap
}

// NewDelay returns a seeded bounded-hold delay policy.
func NewDelay(seed int64, max uint64) *Delay {
	if max == 0 {
		max = 16
	}
	return &Delay{seed: seed, Max: max}
}

// hold derives message seq's hold, deterministically per seed.
func (p *Delay) hold(seq uint64) uint64 {
	return splitmix(uint64(p.seed)^(seq*0x9e3779b97f4a7c15)) % (p.Max + 1)
}

func (p *Delay) push(pm Pending) {
	p.heap.push(held{release: pm.Seq + p.hold(pm.Seq), p: pm})
}

func (p *Delay) pop() (types.Message, bool) {
	if len(p.heap) == 0 {
		return types.Message{}, false
	}
	return p.heap.pop().p.M, true
}

func (p *Delay) len() int { return len(p.heap) }

func (p *Delay) rewind() { p.heap = p.heap[:0] }

// Starve targets one node: sends addressed to Target are withheld while
// anything else is deliverable, and withheld forever once only they remain.
// The starved node never hears from the network — the targeted-starvation
// chaos axis proving asynchronous safety needs no liveness: everyone else
// may certify and decide, the victim must simply never be forced into a
// conflicting decision. The rule: take the oldest send not addressed to
// Target. Target's sends can never be picked, so they are only counted
// (len, and so Scheduler.Starved, still sees them), never stored.
type Starve struct {
	Target types.NodeID
	fifoQueue
	withheld int
}

func (p *Starve) push(pm Pending) {
	if pm.M.To == p.Target {
		p.withheld++
		return
	}
	p.fifoQueue.push(pm)
}

func (p *Starve) len() int { return p.fifoQueue.len() + p.withheld }

func (p *Starve) rewind() {
	p.fifoQueue.rewind()
	p.withheld = 0
}

var (
	_ Policy = (*FIFO)(nil)
	_ Policy = (*Reorder)(nil)
	_ Policy = (*Delay)(nil)
	_ Policy = (*Adversarial)(nil)
	_ Policy = (*Starve)(nil)
)

// Policy spec names accepted by ParsePolicy (scenario JSON's "sched" field
// and cmd/chaos -sched use this grammar).
const (
	SchedFIFO        = "fifo"
	SchedReorder     = "reorder"
	SchedDelay       = "delay"
	SchedAdversarial = "adversarial"
	SchedStarve      = "starve"
)

// ParsePolicy builds a scheduling policy from its spec string:
//
//	""            FIFO (the default asynchronous schedule)
//	fifo          enqueue order, no barrier
//	reorder       seeded uniform reordering
//	delay[:K]     seeded per-message holds up to K ≥ 1 ticks (default 16)
//	adversarial   seeded LIFO-biased worst-case reordering
//	starve:ID     withhold every delivery to node ID ≥ 0
//
// seed drives every coin flip, so equal spec + seed replays the identical
// schedule. A spec is replayable input, so nothing in it is ignored: an
// argument on a policy that takes none is an error, not a no-op.
func ParsePolicy(spec string, seed int64) (Policy, error) {
	name, arg, hasArg := strings.Cut(spec, ":")
	switch name {
	case "", SchedFIFO, SchedReorder, SchedAdversarial:
		if hasArg {
			return nil, fmt.Errorf("round: sched %q takes no argument", spec)
		}
		switch name {
		case SchedReorder:
			return NewReorder(seed), nil
		case SchedAdversarial:
			return NewAdversarial(seed), nil
		}
		return &FIFO{}, nil
	case SchedDelay:
		var max uint64
		if hasArg {
			v, err := strconv.ParseUint(arg, 10, 32)
			if err != nil {
				return nil, fmt.Errorf("round: bad delay bound in sched %q: %v", spec, err)
			}
			if v == 0 {
				return nil, fmt.Errorf("round: delay bound in sched %q must be at least 1", spec)
			}
			max = v
		}
		return NewDelay(seed, max), nil
	case SchedStarve:
		if !hasArg {
			return nil, fmt.Errorf("round: sched %q needs a target node (starve:ID)", spec)
		}
		id, err := strconv.Atoi(arg)
		if err != nil {
			return nil, fmt.Errorf("round: bad starve target in sched %q: %v", spec, err)
		}
		if id < 0 {
			return nil, fmt.Errorf("round: negative starve target in sched %q", spec)
		}
		return &Starve{Target: types.NodeID(id)}, nil
	default:
		return nil, fmt.Errorf("round: unknown sched %q", spec)
	}
}

// splitmix is the 64-bit splitmix finalizer, used for per-message seeded
// draws without allocating an rng per message.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Scheduler is a deterministic delivery queue threaded through the
// Channel/Expander interposition, ordered by a Policy. The policy owns the
// queue; the scheduler stamps each send with its enqueue ticket and routes
// each pick through the channel. RunAsync pulls one policy-chosen delivery
// at a time from it with no barrier at all. A seed fully determines the
// delivery order, which is what makes asynchronous chaos scenarios
// recordable, replayable, and shrinkable like every other axis.
//
// A Scheduler is not safe for concurrent use; the async run serializes all
// calls.
type Scheduler struct {
	policy   Policy
	ch       Channel
	expander Expander

	seq uint64
}

// NewScheduler builds a scheduler over the given policy and channel. A nil
// policy means FIFO; a nil channel means PerfectChannel. The policy's
// queue is emptied: whatever an earlier scheduler left on it is not this
// one's to deliver.
func NewScheduler(policy Policy, ch Channel) *Scheduler {
	if policy == nil {
		policy = &FIFO{}
	}
	if ch == nil {
		ch = PerfectChannel{}
	}
	policy.rewind()
	s := &Scheduler{policy: policy, ch: ch}
	s.expander, _ = ch.(Expander)
	return s
}

// Enqueue queues one validated, stamped send for delivery.
func (s *Scheduler) Enqueue(m types.Message) {
	s.policy.push(Pending{M: m, Seq: s.seq})
	s.seq++
}

// Len returns the number of queued sends.
func (s *Scheduler) Len() int { return s.policy.len() }

// Next asks the policy for one send, routes it through the channel, and
// invokes deliver for every physical copy (an Expander may duplicate or
// drop; a plain Channel delivers at most once). It returns false when the
// queue is empty or the policy withholds every remaining send — Starved
// distinguishes the two. The policy sees only the pushes and its own picks,
// never what the channel did with one, so seeded schedules are insensitive
// to channel behaviour.
func (s *Scheduler) Next(deliver func(types.Message)) bool {
	m, ok := s.policy.pop()
	if !ok {
		return false
	}
	if s.expander != nil {
		for _, dm := range s.expander.DeliverAll(m) {
			deliver(dm)
		}
	} else if dm, ok := s.ch.Deliver(m); ok {
		deliver(dm)
	}
	return true
}

// Starved reports whether sends remain queued — after Next returns false,
// it distinguishes a withholding policy (true) from an empty queue (false).
func (s *Scheduler) Starved() bool { return s.policy.len() > 0 }
