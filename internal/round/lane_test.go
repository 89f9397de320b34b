package round_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"degradable/internal/adversary"
	"degradable/internal/core"
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

var laneKinds = []adversary.Kind{
	adversary.KindSilent, adversary.KindCrash, adversary.KindLie,
	adversary.KindTwoFaced, adversary.KindRandom,
}

var laneDrivers = []struct {
	name string
	d    round.Driver
}{
	{"reference", round.Reference{}},
	{"goroutine", round.Goroutine{}},
}

// laneRun executes one instance — honest complement, the given faults
// wrapped, sender input 42 — and returns its result and Sink stream. It
// sets no Trace, which would turn the lane off.
func laneRun(t testing.TB, p core.Params, faults map[types.NodeID]adversary.Kind, seed int64,
	d round.Driver, ch round.Channel) (transcript, []round.Node) {
	t.Helper()
	nodes, err := p.Nodes(42)
	if err != nil {
		t.Fatal(err)
	}
	strategies := make(map[types.NodeID]adversary.Strategy, len(faults))
	for id, k := range faults {
		if strategies[id], err = k.Build(p.N, 99, seed+int64(id)); err != nil {
			t.Fatal(err)
		}
	}
	n, depth, sender := p.System()
	if err := adversary.Wrap(nodes, n, depth, sender, 42, strategies); err != nil {
		t.Fatal(err)
	}
	var tr transcript
	eng, err := round.NewEngine(nodes, round.Config{Rounds: depth, Channel: ch, Sink: eventLog{&tr.Events}})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Drive(eng); err != nil {
		t.Fatal(err)
	}
	tr.Result = eng.Finalize()
	return tr, nodes
}

// checkLane runs one case through the lane and through the per-message
// twin and requires the same decisions, accounting and event stream.
func checkLane(t testing.TB, name string, p core.Params, faults map[types.NodeID]adversary.Kind, seed int64, d round.Driver) {
	t.Helper()
	got, _ := laneRun(t, p, faults, seed, d, nil)
	want, _ := laneRun(t, p, faults, seed, d, perMessage{})
	if !reflect.DeepEqual(got.Result, want.Result) {
		t.Fatalf("%s: lane result differs from the per-message run\n got %+v\nwant %+v", name, got.Result, want.Result)
	}
	if !reflect.DeepEqual(got.Events, want.Events) {
		t.Fatalf("%s: lane event stream differs from the per-message run\n got %v\nwant %v", name, got.Events, want.Events)
	}
}

// TestLaneMatchesPerMessage is the lane's judge: every matrix shape, every
// sender, 0..u Byzantine wrappers of every kind (the first kind's set
// includes the sender), under both in-process drivers.
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
					faults := make(map[types.NodeID]adversary.Kind, f)
					for k := 0; k < f; k++ {
						faults[types.NodeID((s+ki+k)%p.N)] = kind
					}
					for _, drv := range laneDrivers {
						name := fmt.Sprintf("N=%d/sender=%d/f=%d/%s/%s", p.N, s, f, kind, drv.name)
						checkLane(t, name, p, faults, int64(7*s+f), drv.d)
					}
				}
			}
		}
	}
}

// TestLaneIsTaken guards the matrix against passing vacuously: in a
// fault-free lane run every receiver's relays go by slab, so its outbox is
// empty past round 1, while the per-message twin's is full.
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
}

// TestAdversaryNodeIsNotALaneNode pins the exclusion the lane's soundness
// rests on: a Byzantine wrapper must corrupt every send, so it may never
// take the lane. It holds its honest node as a field today; embedding it
// would promote the LaneNode methods and silently let lies skip Corrupt.
func TestAdversaryNodeIsNotALaneNode(t *testing.T) {
	var nd round.Node = new(adversary.Node)
	if _, ok := nd.(round.LaneNode); ok {
		t.Fatal("*adversary.Node satisfies round.LaneNode")
	}
	var honest round.Node = new(relay.Node)
	if _, ok := honest.(round.LaneNode); !ok {
		t.Fatal("*relay.Node no longer satisfies round.LaneNode")
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
	f.Fuzz(func(t *testing.T, shape, sender uint8, mask uint64, seed int64, goroutine bool) {
		p := laneShapes[int(shape)%len(laneShapes)]
		p.Sender = types.NodeID(int(sender) % p.N)
		rng := rand.New(rand.NewSource(seed))
		faults := map[types.NodeID]adversary.Kind{}
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
