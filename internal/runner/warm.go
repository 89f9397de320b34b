package runner

import (
	"fmt"

	"degradable/internal/adversary"
	"degradable/internal/protocol/relay"
	"degradable/internal/round"
	"degradable/internal/types"
)

// Warm is the reusable BYZ(m,m) instance of one shape — a core.Params'
// N, M, U and Sender. The EIG trees, the relay schedules and the rounds of
// an exchange depend on the shape alone, not on the values sent or the
// fault set, so one honest complement, one Byzantine wrapper per node and
// one engine serve run after run: a node resets with an O(stored) tree
// sweep and the engine restarts keeping every buffer, so a warm run on the
// perfect network allocates nothing. The serving runtime's shards and the
// chaos engine's in-process executor run on it. A Warm is not safe for
// concurrent use.
type Warm struct {
	n, depth int
	sender   types.NodeID
	// honest[i] is node i's honest implementation; byz[i] is the Byzantine
	// wrapper armed in its place, built the first time node i is faulty.
	honest []*relay.Node
	byz    []*adversary.Node
	nodes  []round.Node // the arming scratch handed to the engine
	eng    *round.Engine
	// lies[k] is the random strategy of a run's k-th fault (see Strategy).
	lies []*adversary.RandomLie
}

// Fault arms one node of a Warm run with a Byzantine strategy.
type Fault struct {
	Node     types.NodeID
	Strategy adversary.Strategy
}

// Relays is a protocol whose honest complement is relay nodes: core.Params,
// which runner cannot import because core's tests import runner.
type Relays interface {
	Validate() error
	System() (n, depth int, sender types.NodeID)
	NewNode(id types.NodeID, value types.Value) (*relay.Node, error)
}

// NewWarm builds the warm instance of p's shape.
func NewWarm(p Relays) (*Warm, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n, depth, sender := p.System()
	w := &Warm{n: n, depth: depth, sender: sender,
		honest: make([]*relay.Node, n), byz: make([]*adversary.Node, n), nodes: make([]round.Node, n),
		lies: make([]*adversary.RandomLie, n)}
	for i := range w.honest {
		nd, err := p.NewNode(types.NodeID(i), types.Default)
		if err != nil {
			return nil, err
		}
		w.honest[i], w.nodes[i] = nd, nd
	}
	var err error
	w.eng, err = round.NewEngine(w.nodes, round.Config{Rounds: depth})
	return w, err
}

// Byzantine returns node id's wrapper, building it on first use. Run re-arms
// it; a caller that steps it directly (the service's sender probe) resets it
// first.
func (w *Warm) Byzantine(id types.NodeID) (*adversary.Node, error) {
	if id < 0 || int(id) >= w.n {
		return nil, fmt.Errorf("runner: faulty id %d out of range", int(id))
	}
	if w.byz[id] == nil {
		bn, err := adversary.NewNode(w.n, w.depth, w.sender, id, types.Default, adversary.Honest{})
		if err != nil {
			return nil, err
		}
		w.byz[id] = bn
	}
	return w.byz[id], nil
}

// Strategy builds the strategy of a run's k-th fault (k < N) as
// FaultSpec.Strategy does, except that a random one is the instance's source
// for position k: the first run with a random fault there builds it and
// every later one re-seeds it, so an instance holds one 4.9 kB source per
// position, not a fresh one per run.
func (w *Warm) Strategy(k int, f adversary.FaultSpec) (adversary.Strategy, error) {
	if f.Kind != adversary.KindRandom {
		return f.Strategy(w.n)
	}
	if w.lies[k] == nil {
		w.lies[k] = adversary.NewRandomLie(f.Seed, []types.Value{f.Value})
	} else {
		w.lies[k].Reseed(f.Seed, []types.Value{f.Value})
	}
	return w.lies[k], nil
}

// Run resets the complement with the sender holding value, arms each fault
// spec (the k-th through Strategy(k, ·)) and then each strategy-form fault
// in armed (chaos's crash victims, silent from a kill round no Kind names),
// and drives one run over ch (nil is the perfect network) under
// round.Reference. The result is the engine's own: it stays valid until the
// next Run.
func (w *Warm) Run(value types.Value, faults []adversary.FaultSpec, armed []Fault, ch round.Channel) (*round.Result, error) {
	for i, nd := range w.honest {
		nd.Reset(value)
		w.nodes[i] = nd
	}
	for k, f := range faults {
		s, err := w.Strategy(k, f)
		if err != nil {
			return nil, err
		}
		if err := w.arm(f.Node, value, s); err != nil {
			return nil, err
		}
	}
	for _, f := range armed {
		if err := w.arm(f.Node, value, f.Strategy); err != nil {
			return nil, err
		}
	}
	if err := w.eng.RestartOn(w.nodes, ch); err != nil {
		return nil, err
	}
	if err := (round.Reference{}).Drive(w.eng); err != nil {
		return nil, err
	}
	return w.eng.Finalize(), nil
}

// arm puts node id's Byzantine wrapper, reset onto s, in the run.
func (w *Warm) arm(id types.NodeID, value types.Value, s adversary.Strategy) error {
	bn, err := w.Byzantine(id)
	if err != nil {
		return err
	}
	bn.Reset(value, s)
	w.nodes[id] = bn
	return nil
}
