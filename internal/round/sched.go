package round

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"degradable/internal/types"
)

// Pending is one queued send awaiting delivery: the message plus the global
// enqueue ticket the scheduler stamped it with. Policies see the ticket so
// seeded decisions (per-message delay draws) are a function of the message's
// position in the causal stream, not of slice indices that shift as the
// queue drains.
type Pending struct {
	M   types.Message
	Seq uint64
}

// Policy chooses which queued send the scheduler delivers next. It is the
// whole difference between the synchronous and asynchronous worlds:
//
//   - Lockstep delivers in collect order, and the drivers' barrier (calling
//     Engine.Deliver once per round) closes each round at its deadline — the
//     paper's §4 synchronous model as a scheduling policy. Nothing about it
//     depends on what else is queued, so the Engine does not queue at all
//     under it: each send is routed as it is collected.
//   - FIFO, Reorder, Delay, Adversarial, and Starve order deliveries with no
//     barrier at all; RunAsync drives them one delivery at a time, which is
//     the asynchronous model (unbounded delay and reordering, §6.1's
//     relaxed-timeout half-step taken the rest of the way).
//
// Next returns an index into queue, or -1 to withhold every remaining send
// (the adversary refuses to schedule anything; the run ends undecided). tick
// is the number of deliveries performed so far, the scheduler's only notion
// of time. Policies may be stateful (seeded rngs); a fresh policy plus an
// equal seed replays the identical schedule.
type Policy interface {
	Next(tick uint64, queue []Pending) int
}

// Lockstep delivers strictly in enqueue order. It is the policy the
// synchronous Engine runs each round under: combined with the drivers'
// round barrier it is the lockstep semantics (deadline-closed rounds) that
// keep the cross-driver differential matrix byte-identical. The Engine
// recognizes it (and a nil Config.Policy) and routes sends at Collect with no
// queue; a Scheduler built with it still works, one Next at a time.
type Lockstep struct{}

// Next implements Policy.
func (Lockstep) Next(_ uint64, queue []Pending) int {
	if len(queue) == 0 {
		return -1
	}
	return 0
}

// FIFO delivers in enqueue order with no barrier: the kindest asynchronous
// scheduler, and the baseline the adversarial ones are benchmarked against.
type FIFO struct{}

// Next implements Policy.
func (FIFO) Next(_ uint64, queue []Pending) int {
	if len(queue) == 0 {
		return -1
	}
	return 0
}

// Reorder delivers a uniformly random queued send each step, seeded: the
// canonical "messages arrive in any order" adversary.
type Reorder struct{ rng *rand.Rand }

// NewReorder returns a seeded uniform-reordering policy.
func NewReorder(seed int64) *Reorder {
	return &Reorder{rng: rand.New(rand.NewSource(seed))}
}

// Next implements Policy.
func (p *Reorder) Next(_ uint64, queue []Pending) int {
	if len(queue) == 0 {
		return -1
	}
	return p.rng.Intn(len(queue))
}

// Delay holds each send back for a seeded per-message number of scheduler
// ticks (up to Max), then delivers ready sends in enqueue order. Every send
// is eventually delivered — delay is unbounded relative to the protocol but
// the schedule is fair — so fault-free runs still terminate, just far from
// FIFO order.
type Delay struct {
	seed int64
	// Max is the largest per-message hold in ticks (default 16).
	Max uint64
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

// Next implements Policy: the first ready send in enqueue order, else the
// send with the earliest release (so the queue always progresses).
func (p *Delay) Next(tick uint64, queue []Pending) int {
	if len(queue) == 0 {
		return -1
	}
	best, bestRel := -1, uint64(0)
	for i, pm := range queue {
		rel := pm.Seq + p.hold(pm.Seq)
		if rel <= tick {
			return i
		}
		if best == -1 || rel < bestRel {
			best, bestRel = i, rel
		}
	}
	return best
}

// Adversarial is the worst-case seeded scheduler the async benchmarks run
// against: it favours the newest queued send (maximal reordering — late
// messages overtake the whole causal prefix) and otherwise picks uniformly,
// so quorum certificates assemble from the least convenient interleavings.
type Adversarial struct{ rng *rand.Rand }

// NewAdversarial returns a seeded adversarial (LIFO-biased) policy.
func NewAdversarial(seed int64) *Adversarial {
	return &Adversarial{rng: rand.New(rand.NewSource(seed))}
}

// Next implements Policy.
func (p *Adversarial) Next(_ uint64, queue []Pending) int {
	if len(queue) == 0 {
		return -1
	}
	if p.rng.Intn(2) == 0 {
		return len(queue) - 1
	}
	return p.rng.Intn(len(queue))
}

// Starve targets one node: sends addressed to Target are withheld while
// anything else is deliverable, and withheld forever once only they remain.
// The starved node never hears from the network — the targeted-starvation
// chaos axis proving asynchronous safety needs no liveness: everyone else
// may certify and decide, the victim must simply never be forced into a
// conflicting decision.
type Starve struct{ Target types.NodeID }

// Next implements Policy.
func (p Starve) Next(_ uint64, queue []Pending) int {
	for i, pm := range queue {
		if pm.M.To != p.Target {
			return i
		}
	}
	return -1
}

var (
	_ Policy = Lockstep{}
	_ Policy = FIFO{}
	_ Policy = (*Reorder)(nil)
	_ Policy = (*Delay)(nil)
	_ Policy = (*Adversarial)(nil)
	_ Policy = Starve{}
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
//	delay[:K]     seeded per-message holds up to K ticks (default 16)
//	adversarial   seeded LIFO-biased worst-case reordering
//	starve:ID     withhold every delivery to node ID
//
// seed drives every coin flip, so equal spec + seed replays the identical
// schedule.
func ParsePolicy(spec string, seed int64) (Policy, error) {
	name, arg, hasArg := strings.Cut(spec, ":")
	switch name {
	case "", SchedFIFO:
		return FIFO{}, nil
	case SchedReorder:
		return NewReorder(seed), nil
	case SchedDelay:
		var max uint64
		if hasArg {
			v, err := strconv.ParseUint(arg, 10, 32)
			if err != nil {
				return nil, fmt.Errorf("round: bad delay bound in sched %q: %v", spec, err)
			}
			max = v
		}
		return NewDelay(seed, max), nil
	case SchedAdversarial:
		return NewAdversarial(seed), nil
	case SchedStarve:
		if !hasArg {
			return nil, fmt.Errorf("round: sched %q needs a target node (starve:ID)", spec)
		}
		id, err := strconv.Atoi(arg)
		if err != nil {
			return nil, fmt.Errorf("round: bad starve target in sched %q: %v", spec, err)
		}
		return Starve{Target: types.NodeID(id)}, nil
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
// Channel/Expander interposition, ordered by a Policy. RunAsync pulls one
// policy-chosen delivery at a time from it with no barrier at all; a
// synchronous Engine given a non-Lockstep Config.Policy queues each round's
// sends on one and drains it at the barrier (under Lockstep the Engine needs
// no queue, see Engine.Collect). Either way a seed fully determines the
// delivery order, which is what makes asynchronous chaos scenarios
// recordable, replayable, and shrinkable like every other axis.
//
// A Scheduler is not safe for concurrent use; the engine (or async run)
// serializes all calls.
type Scheduler struct {
	policy   Policy
	ch       Channel
	expander Expander

	queue []Pending
	seq   uint64
	tick  uint64
}

// NewScheduler builds a scheduler over the given policy and channel. A nil
// policy means Lockstep; a nil channel means PerfectChannel.
func NewScheduler(policy Policy, ch Channel) *Scheduler {
	if policy == nil {
		policy = Lockstep{}
	}
	if ch == nil {
		ch = PerfectChannel{}
	}
	s := &Scheduler{policy: policy, ch: ch}
	s.expander, _ = ch.(Expander)
	return s
}

// Enqueue queues one validated, stamped send for delivery.
func (s *Scheduler) Enqueue(m types.Message) {
	s.queue = append(s.queue, Pending{M: m, Seq: s.seq})
	s.seq++
}

// Len returns the number of queued sends.
func (s *Scheduler) Len() int { return len(s.queue) }

// Reset rearms the scheduler for a fresh run, retaining the queue buffer
// (the batch hot loop reuses engines without allocating).
func (s *Scheduler) Reset() {
	s.queue = s.queue[:0]
	s.seq = 0
	s.tick = 0
}

// Next asks the policy for one send, routes it through the channel, and
// invokes deliver for every physical copy (an Expander may duplicate or
// drop; a plain Channel delivers at most once). It returns false when the
// queue is empty or the policy withholds every remaining send — Starved
// distinguishes the two. Each policy decision advances the scheduler's
// tick, delivered or dropped, so seeded schedules are insensitive to
// channel behaviour.
func (s *Scheduler) Next(deliver func(types.Message)) bool {
	idx := s.policy.Next(s.tick, s.queue)
	if idx < 0 || idx >= len(s.queue) {
		return false
	}
	m := s.queue[idx].M
	s.queue = append(s.queue[:idx], s.queue[idx+1:]...)
	s.tick++
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
func (s *Scheduler) Starved() bool { return len(s.queue) > 0 }

// Drain runs the policy to quiescence through Next, delivering until the
// queue empties or the policy withholds the rest. A synchronous Engine built
// with a non-Lockstep Config.Policy calls it once per round, at the barrier;
// under Lockstep the engine has no queue to drain (Engine.Collect routes each
// send as it is collected). Each Next removes its pick in place, so a drain
// is quadratic in queue length — the price of position-dependent policies,
// paid only by the callers that ask for one. deliver must not Enqueue — at a
// round barrier no Step call is in flight, so nothing can send during
// delivery (asynchronous runs, where a delivery does trigger sends, call
// Next themselves).
func (s *Scheduler) Drain(deliver func(types.Message)) {
	for s.Next(deliver) {
	}
}
