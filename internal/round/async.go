package round

import (
	"fmt"
	"math/bits"

	"degradable/internal/types"
)

// AsyncNode is a message-driven protocol participant: the asynchronous
// counterpart of Node, with no round structure at all. The run calls Start
// once for the node's initial sends, then OnDeliver for every message the
// scheduler delivers to it; returned messages are enqueued for future
// policy-chosen delivery. Decided is polled after every delivery — a node
// decides when its quorum certificates complete, never because a deadline
// passed.
//
// Implementations need not be safe for concurrent use: the async run is a
// single deterministic event loop, which is what makes every schedule
// recordable and replayable from a seed. As in the synchronous mode, a
// well-formed message may arrive more than once (duplication faults;
// ingestion must be idempotent) and may never arrive — but unlike the
// synchronous mode, absence is not detectable, so protocols must make
// progress from quorums of what did arrive.
//
// The slice Start and OnDeliver return is borrowed: it stays valid until the
// next call into the same node, and the caller may rewrite its elements but
// must not retain it. A node can therefore hand back one reused buffer and
// allocate nothing per delivery; RunAsync copies every send into the
// scheduler's slab before it calls the node again, and a wrapping node (a Byzantine
// decorator) may corrupt the inner node's sends in place. The order of the
// returned sends is part of the schedule contract: enqueue order is the Seq
// every seeded policy's picks are a function of, so a node that reorders its
// sends changes every recorded schedule. internal/acast emits breadth-first —
// what the delivered message produced, then what applying each of the node's
// own self-addressed copies produced, oldest copy first.
//
// A node may also implement Releaser to hand back what it borrowed for the
// run.
type AsyncNode interface {
	ID() types.NodeID
	Start() []types.Message
	OnDeliver(m types.Message) []types.Message
	Decided() (types.Value, bool)
}

// Releaser is the optional part of the AsyncNode contract, for a node that
// borrows pooled storage while it runs (internal/acast's send buffers). At
// the end of a run, after its last call into the node, RunAsync calls Release
// once on every node that implements it; the slice the node last returned is
// invalid afterwards. A wrapping node forwards Release to the node it wraps.
type Releaser interface {
	Release()
}

// AsyncConfig controls an asynchronous run.
type AsyncConfig struct {
	// Policy orders deliveries; nil means FIFO. Seeded policies make the
	// whole run a deterministic function of (nodes, config). A policy
	// serves one RunAsync: the run hands its seeded source back to
	// internal/rng's pool when it ends, so build a fresh policy per run.
	Policy Policy
	// MaxDeliveries bounds the run (asynchronous protocols have no round
	// count to bound them). Zero means 64·n² — far above any terminating
	// Bracha-broadcast or ABA schedule at these system sizes, so hitting
	// the bound reads as non-termination, not truncation.
	MaxDeliveries int
	// WaitFor is the set of nodes whose decisions end the run (the honest
	// complement, normally — Byzantine nodes may never decide). The empty
	// set means every node.
	WaitFor types.NodeSet
	// Trace, when non-nil, observes every delivered message in schedule
	// order — the replayable delivery transcript.
	Trace func(types.Message)
}

// AsyncResult summarizes an asynchronous run.
type AsyncResult struct {
	// Decisions maps every node that decided to its decision. Undecided
	// nodes are absent — asynchronous runs may legitimately end with
	// partial decisions (a starved node, a withheld certificate).
	Decisions map[types.NodeID]types.Value
	// DeliveriesToDecision maps each decided node to the total number of
	// deliveries the run had performed when it decided — the asynchronous
	// latency measure (there are no rounds to count).
	DeliveriesToDecision map[types.NodeID]int
	// Messages is the number of sends accepted; Delivered the number of
	// them delivered; Bytes the approximate wire volume delivered.
	Messages  int
	Delivered int
	Bytes     int
	// Terminated reports that every WaitFor node decided.
	Terminated bool
	// Starved reports that the run ended with the policy withholding
	// queued sends (targeted starvation), as opposed to an empty queue or
	// an exhausted delivery budget.
	Starved bool
}

// RunAsync executes an asynchronous protocol under a seed-driven scheduler:
// the fourth execution mode, with no round barrier — the policy picks one
// queued send at a time, the recipient's handler runs, and its sends join
// the queue. The run ends when every WaitFor node has decided, the queue
// empties, the policy withholds everything left, or MaxDeliveries is
// reached. Nodes must have distinct IDs in [0, len(nodes)), and so must
// the members of WaitFor; an empty WaitFor names every node, so it needs
// len(nodes) ≤ types.MaxNodeSetID+1.
func RunAsync(nodes []AsyncNode, cfg AsyncConfig) (*AsyncResult, error) {
	n := len(nodes)
	if n == 0 {
		return nil, fmt.Errorf("round: no nodes")
	}
	byID := make([]AsyncNode, n)
	for _, nd := range nodes {
		id := nd.ID()
		if id < 0 || int(id) >= n {
			return nil, fmt.Errorf("round: node ID %d out of range [0,%d)", int(id), n)
		}
		if byID[int(id)] != nil {
			return nil, fmt.Errorf("round: duplicate node ID %d", int(id))
		}
		byID[int(id)] = nd
	}
	max := cfg.MaxDeliveries
	if max <= 0 {
		max = 64 * n * n
	}
	waitFor := cfg.WaitFor
	if n <= types.MaxNodeSetID {
		if rest := uint64(waitFor) >> n; rest != 0 {
			id := n + bits.TrailingZeros64(rest)
			return nil, fmt.Errorf("round: WaitFor node ID %d out of range [0,%d)", id, n)
		}
	}
	if waitFor.Len() == 0 {
		if n > types.MaxNodeSetID+1 {
			return nil, fmt.Errorf("round: %d nodes need an explicit WaitFor (an empty one names every node, and a set holds IDs up to %d)", n, types.MaxNodeSetID)
		}
		for i := 0; i < n; i++ {
			waitFor = waitFor.Add(types.NodeID(i))
		}
	}

	sched := NewScheduler(cfg.Policy)
	res := &AsyncResult{
		Decisions:            make(map[types.NodeID]types.Value, n),
		DeliveriesToDecision: make(map[types.NodeID]int, n),
	}
	awaiting := waitFor.Len()
	decided := make([]bool, n)

	// collect stamps and validates sends exactly like the synchronous
	// Collect — §4 assumption (c): the true source is stamped, a Byzantine
	// node cannot spoof its identity. Round is protocol-owned in the
	// asynchronous mode (internal/acast packs message kinds into it), so it
	// is passed through untouched.
	collect := func(id types.NodeID, out []types.Message) {
		for _, m := range out {
			m.From = id
			if m.To < 0 || int(m.To) >= n || m.To == m.From {
				continue // drop malformed or self-addressed sends
			}
			res.Messages++
			sched.Enqueue(m)
		}
	}
	note := func(id types.NodeID) {
		if decided[id] {
			return
		}
		if v, ok := byID[id].Decided(); ok {
			decided[id] = true
			res.Decisions[id] = v
			res.DeliveriesToDecision[id] = res.Delivered
			if waitFor.Contains(id) {
				awaiting--
			}
		}
	}

	for i, nd := range byID {
		collect(types.NodeID(i), nd.Start())
		note(types.NodeID(i))
	}
	for awaiting > 0 && res.Delivered < max {
		m, ok := sched.Next()
		if !ok {
			res.Starved = sched.Starved()
			break
		}
		res.Delivered++
		res.Bytes += MessageBytes(m)
		if cfg.Trace != nil {
			cfg.Trace(m)
		}
		collect(m.To, byID[m.To].OnDeliver(m))
		note(m.To)
	}
	res.Terminated = awaiting == 0

	// The run owns what it borrowed: the scheduler's storage, the policy's
	// seeded source and the nodes' send buffers go back to their pools.
	sched.release()
	sched.policy.releaseSource()
	for _, nd := range byID {
		if r, ok := nd.(Releaser); ok {
			r.Release()
		}
	}
	return res, nil
}
