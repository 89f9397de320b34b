package round

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"degradable/internal/rng"
	"degradable/internal/types"
)

// ticket is one queued send as a policy sees it: the slab slot its message
// sits in, the global enqueue number the scheduler stamped it with, and its
// recipient. The number is a send's position in the causal stream; seeded
// per-message decisions (Delay's holds) are a function of it, never of where
// the send happens to sit in a policy's storage. A ticket holds no pointer,
// so a policy's storage is plain memory the collector never scans and block
// copies need no write barriers.
type ticket struct {
	seq  uint64
	slot uint32
	to   types.NodeID
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
// a ticket for every send in enqueue order and pops the policy's pick, so
// each policy keeps the one structure that makes its own selection rule
// cheap. The schedule a policy produces is defined by that rule alone (stated
// on each type below) and is part of every recorded repro; the storage behind
// it is not. The methods are unexported because the set of policies is closed
// — scenario strings name them through ParsePolicy — and a policy value
// serves one Scheduler at a time.
//
// Policies may be stateful (seeded rngs, borrowed from internal/rng's pool);
// a fresh policy plus an equal seed replays the identical schedule.
type Policy interface {
	// push queues one send; calls arrive in ascending seq order.
	push(t ticket)
	// pop removes the policy's pick and returns its slot, or false to
	// deliver nothing: the queue is empty, or the policy withholds every
	// remaining send (the adversary refuses to schedule anything; the run
	// ends undecided). A policy that draws from an rng must not draw on an
	// empty queue.
	pop() (uint32, bool)
	// len counts the sends pushed and not yet popped, withheld ones included.
	len() int
	// rewind discards the queued sends and hands the storage back to its
	// pool (the rng state stays: a reused policy continues its seeded
	// stream); the next push takes storage from the pool again. It is not
	// named reset: the linker keeps every reachable method whose name and
	// signature match an interface method that is called, unexported names
	// included, so a reset() here held the runtime's, encoding/json's and
	// eig's inlined reset methods in the binary and moved the code of
	// packages this one does not touch.
	rewind()
	// releaseSource hands a seeded policy's source back to internal/rng's
	// pool; the policy cannot draw again. RunAsync calls it once, when its
	// run ends (a policy serves one run); a Scheduler never does, so a
	// policy handed to a second NewScheduler continues its stream. The name
	// is one no other package uses, for rewind's reason.
	releaseSource()
}

// blockLen is the most sends one block of a queue holds.
const blockLen = 128

// blockStore is the pooled backing of one blocks queue: its sends' slots in
// enqueue order, cut into blocks of at most blockLen, so a queue grows one
// block at a time (nothing is copied to make room, and an emptied block is
// reused) and memory follows the live queue rather than the run's history.
type blockStore struct {
	live  [][]uint32 // enqueue order across and within; only a sole block may be empty
	spare [][]uint32 // emptied blocks, kept for reuse
}

var blockPool = sync.Pool{New: func() any { return new(blockStore) }}

// retire moves block i, whose slots are gone or copied out, to the spares.
func (st *blockStore) retire(i int) {
	st.spare = append(st.spare, st.live[i][:0])
	st.live = st.live[:i+copy(st.live[i:], st.live[i+1:])]
}

// blocks is the storage every slice-shaped discipline keeps its tickets'
// slots in. The store is taken from blockPool at the first push and handed
// back by rewind, so a run's queue costs nothing once the pool is warm.
type blocks struct {
	st *blockStore // nil while nothing was pushed since the last rewind
	n  int
}

func (q *blocks) push(t ticket) {
	if q.st == nil {
		q.st = blockPool.Get().(*blockStore)
	}
	st := q.st
	last := len(st.live) - 1
	if last < 0 || len(st.live[last]) == blockLen {
		var b []uint32
		if k := len(st.spare) - 1; k >= 0 {
			b, st.spare = st.spare[k], st.spare[:k]
		} else {
			b = make([]uint32, 0, blockLen)
		}
		st.live = append(st.live, b)
		last++
	}
	st.live[last] = append(st.live[last], t.slot)
	q.n++
}

func (q *blocks) len() int { return q.n }

func (q *blocks) rewind() {
	if st := q.st; st != nil {
		for _, b := range st.live {
			st.spare = append(st.spare, b[:0])
		}
		st.live = st.live[:0]
		blockPool.Put(st)
		q.st = nil
	}
	q.n = 0
}

// fifoQueue is the enqueue-order discipline: the oldest send is at a cursor
// into the first block, so push and pop are O(1).
type fifoQueue struct {
	blocks
	head int
}

func (q *fifoQueue) pop() (uint32, bool) {
	if q.n == 0 {
		return 0, false
	}
	st := q.st
	b := st.live[0]
	slot := b[q.head]
	q.n--
	if q.head++; q.head == len(b) {
		q.head = 0
		if len(st.live) > 1 {
			st.retire(0)
		} else {
			st.live[0] = b[:0] // drained: rewind instead of growing
		}
	}
	return slot, true
}

func (q *fifoQueue) rewind() {
	q.blocks.rewind()
	q.head = 0
}

func (q *fifoQueue) releaseSource() {}

// FIFO delivers in enqueue order with no barrier: the kindest asynchronous
// scheduler, and the baseline the adversarial ones are benchmarked against.
type FIFO struct{ fifoQueue }

// blockQueue is the order-statistic discipline behind Reorder and
// Adversarial: the k-th live send in enqueue order is found by walking block
// lengths and removed by one copy inside its block, without moving the rest
// of the queue. Neighbours that fit in one block are joined, so blocks stay
// at least half full on average however the removals fall.
type blockQueue struct{ blocks }

// take removes the k-th live send in enqueue order, 0 ≤ k < n, and returns
// its slot.
func (q *blockQueue) take(k int) uint32 {
	live := q.st.live
	bi := len(live) - 1
	if k == q.n-1 {
		k = len(live[bi]) - 1 // the newest send: no walk
	} else {
		for bi = 0; k >= len(live[bi]); bi++ {
			k -= len(live[bi])
		}
	}
	b := live[bi]
	slot := b[k]
	live[bi] = b[:k+copy(b[k:], b[k+1:])]
	q.n--
	if !q.join(bi) {
		q.join(bi - 1)
	}
	return slot
}

// join folds block i+1 into block i when the two fit in one, and reports
// whether it did. A join copies only the block it retires, and only a push
// adds a block.
func (q *blockQueue) join(i int) bool {
	st := q.st
	if i < 0 || i+1 >= len(st.live) || len(st.live[i])+len(st.live[i+1]) > blockLen {
		return false
	}
	st.live[i] = append(st.live[i], st.live[i+1]...)
	st.retire(i + 1)
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
	return &Reorder{rng: rng.Get(seed)}
}

func (p *Reorder) releaseSource() { putSource(&p.rng) }

func (p *Reorder) pop() (uint32, bool) {
	if p.n == 0 {
		return 0, false
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
	return &Adversarial{rng: rng.Get(seed)}
}

func (p *Adversarial) releaseSource() { putSource(&p.rng) }

// putSource hands a policy's pooled source back, once.
func putSource(r **rand.Rand) {
	if *r != nil {
		rng.Put(*r)
		*r = nil
	}
}

func (p *Adversarial) pop() (uint32, bool) {
	if p.n == 0 {
		return 0, false
	}
	k := p.n - 1
	if p.rng.Intn(2) != 0 {
		k = p.rng.Intn(p.n)
	}
	return p.take(k), true
}

// held is one Delay entry: a send's slot, its enqueue number and the
// position it is released at.
type held struct {
	release uint64
	seq     uint64
	slot    uint32
}

func (a *held) before(b *held) bool {
	return a.release < b.release || a.release == b.release && a.seq < b.seq
}

// holdHeap is a binary min-heap on (release, seq), pooled like blockStore.
type holdHeap struct{ s []held }

var heapPool = sync.Pool{New: func() any { return new(holdHeap) }}

func (h *holdHeap) push(e held) {
	s := h.s
	if len(s) == cap(s) {
		// Doubling: append's gentler growth past 256 entries would copy,
		// and leave behind as garbage, twice as much on the way up.
		s = append(make([]held, 0, max(16, 2*len(s))), s...)
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
	h.s = s
}

func (h *holdHeap) pop() held {
	s := h.s
	top, e := s[0], s[len(s)-1]
	s = s[:len(s)-1]
	h.s = s
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

	heap *holdHeap // nil while nothing was pushed since the last rewind
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

func (p *Delay) push(t ticket) {
	if p.heap == nil {
		p.heap = heapPool.Get().(*holdHeap)
	}
	p.heap.push(held{release: t.seq + p.hold(t.seq), seq: t.seq, slot: t.slot})
}

func (p *Delay) pop() (uint32, bool) {
	if p.len() == 0 {
		return 0, false
	}
	return p.heap.pop().slot, true
}

func (p *Delay) len() int {
	if p.heap == nil {
		return 0
	}
	return len(p.heap.s)
}

func (p *Delay) releaseSource() {}

func (p *Delay) rewind() {
	if p.heap != nil {
		p.heap.s = p.heap.s[:0]
		heapPool.Put(p.heap)
		p.heap = nil
	}
}

// Starve targets one node: sends addressed to Target are withheld while
// anything else is deliverable, and withheld forever once only they remain.
// The starved node never hears from the network — the targeted-starvation
// chaos axis proving asynchronous safety needs no liveness: everyone else
// may certify and decide, the victim must simply never be forced into a
// conflicting decision. The rule: take the oldest send not addressed to
// Target. Target's sends can never be picked, so they are only counted
// (len, and so Scheduler.Starved, still sees them), never queued.
type Starve struct {
	Target types.NodeID
	fifoQueue
	withheld int
}

func (p *Starve) push(t ticket) {
	if t.to == p.Target {
		p.withheld++
		return
	}
	p.fifoQueue.push(t)
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
// and degradable chaos -sched use this grammar).
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

// msgSlab is the pooled message store behind one Scheduler: every queued send
// sits in one slot from its Enqueue to its pick, and a picked send's slot is
// the next one filled.
type msgSlab struct {
	msgs []types.Message
	free []uint32
}

var slabPool = sync.Pool{New: func() any { return new(msgSlab) }}

// Scheduler is a deterministic delivery queue ordered by a Policy. It keeps
// each accepted send once, in a slot of its slab, and hands the policy a
// pointer-free ticket for it; the policy owns the order. RunAsync pulls one
// policy-chosen delivery at a time from it with no barrier at all. A seed
// fully determines the delivery order, which is what makes asynchronous
// chaos scenarios recordable, replayable, and shrinkable like every other
// axis.
//
// A Scheduler is not safe for concurrent use; the async run serializes all
// calls.
type Scheduler struct {
	policy Policy
	slab   *msgSlab
	seq    uint64
}

// NewScheduler builds a scheduler over the given policy; nil means FIFO.
// The policy's queue is emptied: whatever an earlier scheduler left on it is
// not this one's to deliver.
func NewScheduler(policy Policy) *Scheduler {
	if policy == nil {
		policy = &FIFO{}
	}
	policy.rewind()
	return &Scheduler{policy: policy, slab: slabPool.Get().(*msgSlab)}
}

// Enqueue queues one validated, stamped send for delivery.
func (s *Scheduler) Enqueue(m types.Message) {
	sl := s.slab
	var slot uint32
	if k := len(sl.free) - 1; k >= 0 {
		slot, sl.free = sl.free[k], sl.free[:k]
		sl.msgs[slot] = m
	} else {
		slot = uint32(len(sl.msgs))
		sl.msgs = append(sl.msgs, m)
	}
	s.policy.push(ticket{seq: s.seq, slot: slot, to: m.To})
	s.seq++
}

// Len returns the number of queued sends.
func (s *Scheduler) Len() int { return s.policy.len() }

// Next removes the policy's pick and returns it. It returns false when the
// queue is empty or the policy withholds every remaining send — Starved
// distinguishes the two.
func (s *Scheduler) Next() (types.Message, bool) {
	slot, ok := s.policy.pop()
	if !ok {
		return types.Message{}, false
	}
	s.slab.free = append(s.slab.free, slot)
	return s.slab.msgs[slot], true
}

// Starved reports whether sends remain queued — after Next returns false,
// it distinguishes a withholding policy (true) from an empty queue (false).
func (s *Scheduler) Starved() bool { return s.policy.len() > 0 }

// release ends the scheduler's run: the policy's storage and the slab go
// back to their pools, every slot cleared first so that no pooled message
// keeps a Path alive. The scheduler is unusable afterwards.
func (s *Scheduler) release() {
	s.policy.rewind()
	sl := s.slab
	clear(sl.msgs)
	sl.msgs, sl.free = sl.msgs[:0], sl.free[:0]
	slabPool.Put(sl)
	s.slab = nil
}
