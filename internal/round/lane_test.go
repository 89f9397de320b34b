package round_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"degradable/internal/adversary"
	"degradable/internal/core"
	"degradable/internal/eig"
	"degradable/internal/protocol/relay"
	"degradable/internal/round"
	"degradable/internal/types"
)

// perMessage delivers every message unchanged, like PerfectChannel, but is
// not PerfectChannel: an engine running it keeps the bulk lane off, so it
// is the per-message twin every lane run is compared against.
type perMessage struct{}

func (perMessage) Deliver(m types.Message) (types.Message, bool) { return m, true }

// laneShapes are the matrix's systems, one per N in {4, 7, 10, 11}; the
// last is the serving benchmark's deep shape.
var laneShapes = []core.Params{
	{N: 4, M: 1, U: 1},
	{N: 7, M: 2, U: 2},
	{N: 10, M: 2, U: 5},
	{N: 11, M: 3, U: 4},
}

// laneFault is one fault behaviour of the lane matrix.
type laneFault struct {
	name  string
	build func(n int, seed int64) (adversary.Strategy, error)
}

func (f laneFault) String() string { return f.name }

// kindFault is the built-in fault kind k, lying with 99.
func kindFault(k adversary.Kind) laneFault {
	return laneFault{k.String(), func(n int, seed int64) (adversary.Strategy, error) { return k.Build(n, 99, seed) }}
}

// laneKinds are the matrix's fault behaviours: every built-in kind, then
// BandwagonLie, an Observer whose lies follow the tree its node holds at
// each Step, so a slab stored a round early or late changes what it sends.
var laneKinds = []laneFault{
	kindFault(adversary.KindSilent), kindFault(adversary.KindCrash), kindFault(adversary.KindLie),
	kindFault(adversary.KindTwoFaced), kindFault(adversary.KindRandom),
	{"bandwagon", func(_ int, seed int64) (adversary.Strategy, error) {
		return &adversary.BandwagonLie{Swing: seed%2 != 0}, nil
	}},
}

var laneDrivers = []struct {
	name string
	d    round.Driver
}{
	{"reference", round.Reference{}},
	{"goroutine", round.Goroutine{}},
}

// laneLog is what the matrix compares of one run: its result and Sink
// stream, each wrapper's Corrupt calls in call order, and node trees as
// exported after every Step — the wrappers' under every driver (taken when
// their strategy observes the tree), the honest nodes' under the reference
// schedule, after Finish too.
type laneLog struct {
	transcript
	Calls        map[types.NodeID][]corruptCall
	WrapperTrees map[types.NodeID][][]byte
	HonestTrees  [][]byte
}

// corruptCall is one Corrupt call: recipient, path, round, the honest value
// shown, the value returned and whether the send was kept.
type corruptCall struct {
	To      types.NodeID
	Path    types.Path
	Round   int
	In, Out types.Value
	Sent    bool
}

// recorder wraps a fault's strategy and logs what it is asked and shown. It
// is an Observer whatever it wraps, forwarding Observe only to an Observer.
type recorder struct {
	inner adversary.Strategy
	calls []corruptCall
	trees [][]byte
}

func (r *recorder) Corrupt(self types.NodeID, m types.Message) (types.Value, bool) {
	v, ok := r.inner.Corrupt(self, m)
	r.calls = append(r.calls, corruptCall{m.To, m.Path.Clone(), m.Round, m.Value, v, ok})
	return v, ok
}

func (r *recorder) Observe(round int, tree *eig.Tree) {
	r.trees = append(r.trees, export(tree))
	if o, ok := r.inner.(adversary.Observer); ok {
		o.Observe(round, tree)
	}
}

func export(tree *eig.Tree) []byte {
	b, err := tree.Export(nil)
	if err != nil {
		panic(err)
	}
	return b
}

// snapReference is round.Reference that exports every honest node's tree
// after each of its Step calls and after Finish.
type snapReference struct{ trees *[][]byte }

func (d snapReference) Drive(e *round.Engine) error {
	snap := func(i int) {
		if nd, ok := e.Node(i).(*relay.Node); ok {
			*d.trees = append(*d.trees, export(nd.Tree()))
		}
	}
	for r := 1; r <= e.Rounds(); r++ {
		e.Deliver()
		for i := 0; i < e.N(); i++ {
			e.Collect(i, r, e.Node(i).Step(r, e.Inbox(i)))
			snap(i)
		}
	}
	e.Deliver()
	for i := 0; i < e.N(); i++ {
		e.Node(i).Finish(e.Inbox(i))
		snap(i)
	}
	return nil
}

// laneRun executes one instance — honest complement, the given faults
// wrapped, sender input 42 — and returns what laneLog records. It sets no
// Trace, which would turn the lane off.
func laneRun(t testing.TB, p core.Params, faults map[types.NodeID]laneFault, seed int64,
	d round.Driver, ch round.Channel) (laneLog, []round.Node) {
	t.Helper()
	nodes, err := p.Nodes(42)
	if err != nil {
		t.Fatal(err)
	}
	recs := make(map[types.NodeID]*recorder, len(faults))
	strategies := make(map[types.NodeID]adversary.Strategy, len(faults))
	for id, f := range faults {
		inner, err := f.build(p.N, seed+int64(id))
		if err != nil {
			t.Fatal(err)
		}
		recs[id] = &recorder{inner: inner}
		strategies[id] = recs[id]
	}
	n, depth, sender := p.System()
	if err := adversary.Wrap(nodes, n, depth, sender, 42, strategies); err != nil {
		t.Fatal(err)
	}
	var log laneLog
	if _, ok := d.(round.Reference); ok {
		d = snapReference{&log.HonestTrees}
	}
	eng, err := round.NewEngine(nodes, round.Config{Rounds: depth, Channel: ch, Sink: eventLog{&log.Events}})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Drive(eng); err != nil {
		t.Fatal(err)
	}
	log.Result = eng.Finalize()
	log.Calls = make(map[types.NodeID][]corruptCall, len(recs))
	log.WrapperTrees = make(map[types.NodeID][][]byte, len(recs))
	for id, r := range recs {
		log.Calls[id], log.WrapperTrees[id] = r.calls, r.trees
	}
	return log, nodes
}

// checkLane runs one case through the lane and through the per-message
// twin and requires the same decisions, accounting and event stream, the
// same Corrupt calls from every wrapper, and the same trees after every
// Step.
func checkLane(t testing.TB, name string, p core.Params, faults map[types.NodeID]laneFault, seed int64, d round.Driver) {
	t.Helper()
	got, _ := laneRun(t, p, faults, seed, d, nil)
	want, _ := laneRun(t, p, faults, seed, d, perMessage{})
	if !reflect.DeepEqual(got.Result, want.Result) {
		t.Fatalf("%s: lane result differs from the per-message run\n got %+v\nwant %+v", name, got.Result, want.Result)
	}
	if !reflect.DeepEqual(got.Events, want.Events) {
		t.Fatalf("%s: lane event stream differs from the per-message run\n got %v\nwant %v", name, got.Events, want.Events)
	}
	for id := range faults {
		if !reflect.DeepEqual(got.Calls[id], want.Calls[id]) {
			t.Fatalf("%s: wrapper %d's Corrupt calls differ from the per-message run\n got %v\nwant %v",
				name, int(id), got.Calls[id], want.Calls[id])
		}
		if !reflect.DeepEqual(got.WrapperTrees[id], want.WrapperTrees[id]) {
			t.Fatalf("%s: wrapper %d's trees differ from the per-message run", name, int(id))
		}
	}
	if !reflect.DeepEqual(got.HonestTrees, want.HonestTrees) {
		t.Fatalf("%s: honest trees differ from the per-message run", name)
	}
}

// TestLaneMatchesPerMessage is the lane's judge: every matrix shape, every
// sender, 0..u Byzantine wrappers of every kind (the first kind's set
// includes the sender), under both in-process drivers; then, per shape and
// sender, u wrappers of mixed kinds from the sender on — a lying sender
// beside lying relayers, and relayers that take each other's lies by slab.
// The wrappers take the honest relays by slab on the lane run and by
// message on its twin.
func TestLaneMatchesPerMessage(t *testing.T) {
	for _, shape := range laneShapes {
		for s := 0; s < shape.N; s++ {
			p := shape
			p.Sender = types.NodeID(s)
			for f := 0; f <= p.U; f++ {
				for ki, kind := range laneKinds {
					if f == 0 && ki > 0 {
						break // the fault-free case once
					}
					faults := make(map[types.NodeID]laneFault, f)
					for k := 0; k < f; k++ {
						faults[types.NodeID((s+ki+k)%p.N)] = kind
					}
					for _, drv := range laneDrivers {
						name := fmt.Sprintf("N=%d/sender=%d/f=%d/%s/%s", p.N, s, f, kind, drv.name)
						checkLane(t, name, p, faults, int64(7*s+f), drv.d)
					}
				}
			}
			for ki := range laneKinds {
				faults := make(map[types.NodeID]laneFault, p.U)
				for k := 0; k < p.U; k++ {
					faults[types.NodeID((s+k)%p.N)] = laneKinds[(ki+k)%len(laneKinds)]
				}
				for _, drv := range laneDrivers {
					name := fmt.Sprintf("N=%d/sender=%d/mixed=%v/%s", p.N, s, faults, drv.name)
					checkLane(t, name, p, faults, int64(7*s+ki), drv.d)
				}
			}
		}
	}
}

// TestLaneIsTaken guards the matrix against passing vacuously: in a lane
// run every receiver's relays go by slab, so its outbox is empty past round
// 1, while the per-message twin's is full. With a Lie wrapper in the run
// the lane stays on — the honest outboxes are still empty — and the
// wrapper's tree, seen through its strategy at each Step, holds the
// slabbed claims: every claim that avoids it, as the twin's absorbs them.
func TestLaneIsTaken(t *testing.T) {
	p := laneShapes[1]
	for _, tc := range []struct {
		ch   round.Channel
		want int
	}{{nil, 0}, {round.PerfectChannel{}, 0}, {perMessage{}, p.N - 1}} {
		_, nodes := laneRun(t, p, nil, 1, round.Reference{}, tc.ch)
		if got := len(nodes[1].(*relay.Node).Outbox(2)); got != tc.want {
			t.Errorf("channel %T: receiver's round-2 outbox has %d sends, want %d", tc.ch, got, tc.want)
		}
	}

	const liar = 3
	depth := p.Depth()
	trees := func(ch round.Channel) (snaps []treeSnap, nodes []round.Node) {
		spy := &treeSpy{Lie: adversary.Lie{Value: 99}}
		faults := map[types.NodeID]laneFault{liar: {"spy", func(int, int64) (adversary.Strategy, error) { return spy, nil }}}
		_, nodes = laneRun(t, p, faults, 1, round.Reference{}, ch)
		return spy.snaps, nodes
	}
	lane, nodes := trees(nil)
	for i, nd := range nodes {
		for r := 2; r <= depth && i != liar; r++ {
			if got := len(nd.(*relay.Node).Outbox(r)); got != 0 {
				t.Errorf("node %d's round-%d outbox has %d sends beside a Lie wrapper, want 0", i, r, got)
			}
		}
	}
	twin, twinNodes := trees(perMessage{})
	if !reflect.DeepEqual(lane, twin) {
		t.Fatal("the wrapper's trees at each Step differ between the lane and the per-message run")
	}
	// The wrapper's own relays go by slab too: its last round stands for
	// every scheduled send, none of them a message.
	if got, want := nodes[liar].(round.LaneSender).LaneSent(depth), nodes[1].(round.LaneNode).LaneClaims(depth)*(p.N-1); got != want {
		t.Errorf("the wrapper's round-%d slab stands for %d sends, want %d", depth, got, want)
	}
	if got := twinNodes[liar].(round.LaneSender).LaneSent(depth); got != 0 {
		t.Errorf("the per-message twin's wrapper sent %d relays by slab", got)
	}
	// At Step(depth) the wrapper holds every claim of length < depth that
	// avoids it: P(n−2, ℓ−1) of length ℓ, all but length 1 taken by slab.
	want, perm := 0, 1
	for l := 1; l < depth; l++ {
		want += perm
		perm *= p.N - 1 - l
	}
	if got := lane[depth-1].stored; got != want {
		t.Fatalf("the wrapper's tree holds %d claims at round %d, want %d", got, depth, want)
	}
}

// treeSpy is a Lie strategy that records its node's tree at each Step.
type treeSpy struct {
	adversary.Lie
	snaps []treeSnap
}

type treeSnap struct {
	stored int
	export []byte
}

func (s *treeSpy) Observe(_ int, tree *eig.Tree) {
	b, err := tree.Export(nil)
	if err != nil {
		panic(err)
	}
	s.snaps = append(s.snaps, treeSnap{tree.Stored(), b})
}

// TestAdversaryNodeIsNotALaneNode pins the exclusion the lane's soundness
// rests on: a Byzantine wrapper must corrupt every send, so it may take
// slabs and send slabs of its strategy's values, but never relay its honest
// tree. It holds its honest node as a field today; embedding it would
// promote the LaneNode methods and silently let lies skip Corrupt.
func TestAdversaryNodeIsNotALaneNode(t *testing.T) {
	var nd round.Node = new(adversary.Node)
	if _, ok := nd.(round.LaneNode); ok {
		t.Fatal("*adversary.Node satisfies round.LaneNode")
	}
	if _, ok := nd.(relay.Liar); !ok {
		t.Fatal("*adversary.Node no longer sends its lies by slab")
	}
	var honest round.Node = new(relay.Node)
	if _, ok := honest.(round.LaneNode); !ok {
		t.Fatal("*relay.Node no longer satisfies round.LaneNode")
	}
	if _, ok := honest.(relay.Liar); ok {
		t.Fatal("*relay.Node satisfies relay.Liar")
	}
}

// TestRecordViewsSeesEveryMessage checks that RecordViews keeps the lane
// off: an all-honest run, where the lane would carry every relay, records
// the oracle's views — every delivered message, relays included.
func TestRecordViewsSeesEveryMessage(t *testing.T) {
	p := laneShapes[1]
	cfg := round.Config{Rounds: p.Depth(), RecordViews: true}
	nodes := func() []round.Node {
		nodes, err := p.Nodes(42)
		if err != nil {
			t.Fatal(err)
		}
		return nodes
	}
	got, err := round.Run(nodes(), cfg, round.Reference{})
	if err != nil {
		t.Fatal(err)
	}
	want := newOracle(nodes(), cfg).run()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("views run differs from the oracle's\n got %+v\nwant %+v", got, want)
	}
	viewed, relays := 0, 0
	for _, v := range got.Views {
		viewed += len(v)
		for _, m := range v {
			if len(m.Path) >= 2 {
				relays++
			}
		}
	}
	if viewed != got.Delivered || relays == 0 {
		t.Fatalf("views hold %d messages (%d relays), delivered %d", viewed, relays, got.Delivered)
	}
}

// FuzzLaneVsPerMessage is the differential over shape, sender, fault set,
// per-node strategy and seed.
func FuzzLaneVsPerMessage(f *testing.F) {
	f.Add(uint8(3), uint8(0), uint64(1<<3), int64(1), false)
	f.Add(uint8(1), uint8(2), uint64(0b1010011), int64(9), true)
	f.Add(uint8(2), uint8(9), uint64(0), int64(4), false)
	f.Add(uint8(0), uint8(1), uint64(0b11), int64(5), false) // a faulty sender beside a faulty relayer
	f.Fuzz(func(t *testing.T, shape, sender uint8, mask uint64, seed int64, goroutine bool) {
		p := laneShapes[int(shape)%len(laneShapes)]
		p.Sender = types.NodeID(int(sender) % p.N)
		rng := rand.New(rand.NewSource(seed))
		faults := map[types.NodeID]laneFault{}
		for id := 0; id < p.N; id++ {
			if mask&(1<<id) != 0 {
				faults[types.NodeID(id)] = laneKinds[rng.Intn(len(laneKinds))]
			}
		}
		d := laneDrivers[0].d
		if goroutine {
			d = laneDrivers[1].d
		}
		checkLane(t, fmt.Sprintf("N=%d/sender=%d/faults=%v", p.N, p.Sender, faults), p, faults, seed, d)
	})
}
