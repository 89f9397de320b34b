package round_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"degradable/internal/adversary"
	"degradable/internal/chaos"
	"degradable/internal/core"
	"degradable/internal/obs"
	"degradable/internal/round"
	"degradable/internal/topology"
	"degradable/internal/transport"
	"degradable/internal/types"
)

// oracleEngine is the delivery flow the Engine had before it routed sends at
// Collect, kept as the reference the Engine is differentially tested
// against: Collect stamps, validates and queues; Deliver drains the whole
// queue through the channel in enqueue order into one set of inboxes, then
// sorts every inbox, always. It shares no code with the Engine beyond the
// exported interfaces and types.SortMessages.
type oracleEngine struct {
	cfg      round.Config
	byID     []round.Node
	queue    []types.Message
	inboxes  [][]types.Message
	res      *round.Result
	curRound int
}

func newOracle(nodes []round.Node, cfg round.Config) *oracleEngine {
	o := &oracleEngine{
		cfg:     cfg,
		byID:    make([]round.Node, len(nodes)),
		inboxes: make([][]types.Message, len(nodes)),
		res: &round.Result{
			Decisions: make(map[types.NodeID]types.Value, len(nodes)),
			PerRound:  make([]int, cfg.Rounds),
		},
	}
	for _, nd := range nodes {
		o.byID[int(nd.ID())] = nd
	}
	if cfg.RecordViews {
		o.res.Views = make(map[types.NodeID][]types.Message, len(nodes))
	}
	return o
}

func (o *oracleEngine) Inbox(i int) []types.Message { return o.inboxes[i] }

func (o *oracleEngine) Collect(i, r int, out []types.Message) {
	for _, m := range out {
		m.From = types.NodeID(i)
		m.Round = r
		if m.To < 0 || int(m.To) >= len(o.byID) || m.To == m.From {
			continue
		}
		o.res.Messages++
		o.res.PerRound[r-1]++
		o.queue = append(o.queue, m)
	}
}

func (o *oracleEngine) Deliver() {
	for i := range o.inboxes {
		o.inboxes[i] = o.inboxes[i][:0]
	}
	delivered := 0
	deliver := func(dm types.Message) {
		delivered++
		o.res.Bytes += round.MessageBytes(dm)
		if o.cfg.Trace != nil {
			o.cfg.Trace(dm)
		}
		o.inboxes[int(dm.To)] = append(o.inboxes[int(dm.To)], dm)
	}
	for _, m := range o.queue {
		switch ch := o.cfg.Channel.(type) {
		case nil:
			deliver(m)
		case round.Expander:
			for _, dm := range ch.DeliverAll(m) {
				deliver(dm)
			}
		default:
			if dm, ok := ch.Deliver(m); ok {
				deliver(dm)
			}
		}
	}
	o.queue = o.queue[:0]
	o.res.Delivered += delivered
	for i := range o.inboxes {
		types.SortMessages(o.inboxes[i])
		if o.cfg.RecordViews {
			o.res.Views[types.NodeID(i)] = append(o.res.Views[types.NodeID(i)], o.inboxes[i]...)
		}
	}
	if o.cfg.Sink != nil && o.curRound > 0 {
		o.cfg.Sink.Emit(obs.Event{Kind: obs.EvRoundClose, Node: -1, Round: int32(o.curRound), A: int64(o.sentIn())})
	}
	o.curRound++
	if o.cfg.Sink != nil {
		o.cfg.Sink.Emit(obs.Event{Kind: obs.EvRoundOpen, Node: -1, Round: int32(o.curRound), A: int64(delivered)})
	}
}

func (o *oracleEngine) sentIn() int {
	if o.curRound >= 1 && o.curRound <= len(o.res.PerRound) {
		return o.res.PerRound[o.curRound-1]
	}
	return 0
}

// run drives the oracle through the reference schedule and finalizes it.
func (o *oracleEngine) run() *round.Result {
	n := len(o.byID)
	for r := 1; r <= o.cfg.Rounds; r++ {
		o.Deliver()
		for i := 0; i < n; i++ {
			o.Collect(i, r, o.byID[i].Step(r, o.Inbox(i)))
		}
	}
	o.Deliver()
	for i := 0; i < n; i++ {
		o.byID[i].Finish(o.Inbox(i))
	}
	return o.Finalize()
}

func (o *oracleEngine) Finalize() *round.Result {
	if o.cfg.Sink != nil && o.curRound > 0 {
		o.cfg.Sink.Emit(obs.Event{Kind: obs.EvRoundClose, Node: -1, Round: int32(o.curRound), A: int64(o.sentIn())})
	}
	for i, nd := range o.byID {
		o.res.Decisions[types.NodeID(i)] = nd.Decide()
	}
	return o.res
}

// transcript is everything a run shows the outside: its result, the Trace
// sequence and the Sink event stream.
type transcript struct {
	Result *round.Result
	Trace  []types.Message
	Events []obs.Event
}

type eventLog struct{ events *[]obs.Event }

func (l eventLog) Emit(e obs.Event) { *l.events = append(*l.events, e) }

// observe wires a transcript's recorders into cfg.
func observe(cfg round.Config, tr *transcript) round.Config {
	cfg.Trace = func(m types.Message) {
		m.Path = m.Path.Clone()
		tr.Trace = append(tr.Trace, m)
	}
	cfg.Sink = eventLog{&tr.Events}
	return cfg
}

// diffShape is the instance the matrix runs: depth 3, 8 nodes (the topology
// channels need a graph of connectivity m+u+1 = 5, Harary H(5,8)), a
// two-faced receiver and a seeded random liar, so inboxes carry several
// values per claim and a reordering of equal keys would change a decision.
var diffShape = core.Params{N: 8, M: 2, U: 2}

func diffNodes(t *testing.T) []round.Node {
	t.Helper()
	nodes, err := diffShape.Nodes(42)
	if err != nil {
		t.Fatal(err)
	}
	n, depth, sender := diffShape.System()
	err = adversary.Wrap(nodes, n, depth, sender, 42, map[types.NodeID]adversary.Strategy{
		3: adversary.TwoFaced{A: types.NewNodeSet(1, 2, 4), ValueA: 99, ValueB: 7},
		6: adversary.NewRandomLie(5, []types.Value{1, 2, 3}),
	})
	if err != nil {
		t.Fatal(err)
	}
	return nodes
}

// diffChannels builds a fresh, equally seeded channel per call: every seeded
// channel draws per Deliver call, so the two sides of a comparison agree
// only if they feed their channel the same messages in the same order.
var diffChannels = []struct {
	name string
	// stateless channels treat a second run like the first, so a restarted
	// engine, which keeps its channel, can be held to the same transcript.
	stateless bool
	mk        func(t *testing.T) round.Channel
}{
	{"nil", true, func(*testing.T) round.Channel { return nil }},
	{"perfect", true, func(*testing.T) round.Channel { return round.PerfectChannel{} }},
	{"filter", true, func(*testing.T) round.Channel {
		return round.FilterChannel{Keep: func(m types.Message) bool { return (int(m.From)+int(m.To)+len(m.Path))%4 != 0 }}
	}},
	{"relaxed", false, func(*testing.T) round.Channel {
		return round.NewRelaxedChannel(0.2, 11, types.NewNodeSet(3, 6))
	}},
	{"chain", false, func(*testing.T) round.Channel {
		return round.ChainChannel{
			round.NewRelaxedChannel(0.1, 12, 0),
			round.FilterChannel{Keep: func(m types.Message) bool { return m.To != 5 || len(m.Path) < 3 }},
			round.NewRelaxedChannel(0.1, 13, 0),
		}
	}},
	{"chaos", false, func(t *testing.T) round.Channel {
		ch, err := chaos.NewChannel(chaos.Compose(
			chaos.Injector{Kind: chaos.Duplicate, P: 0.5},
			chaos.Injector{Kind: chaos.CorruptValue, P: 0.5, Domain: []types.Value{5, 6}},
			chaos.Injector{Kind: chaos.Partition, Groups: [][]types.NodeID{{1, 2}, {4, 5}}, FromRound: 2, ToRound: 2},
			chaos.Injector{Kind: chaos.Drop, P: 0.1},
		), types.NewNodeSet(3, 6), 17, new(chaos.Counters))
		if err != nil {
			t.Fatal(err)
		}
		return ch
	}},
	{"transport", false, func(t *testing.T) round.Channel {
		ch, err := transport.New(diffRoutes(t), diffShape.M, diffShape.U, diffRelays, true)
		if err != nil {
			t.Fatal(err)
		}
		return ch
	}},
}

var diffRelays = map[types.NodeID]transport.RelayCorruptor{
	3: transport.FlipTo(99),
	6: transport.DropAll(),
}

func diffRoutes(t *testing.T) *topology.Routes {
	t.Helper()
	g, err := topology.Harary(5, 8)
	if err != nil {
		t.Fatal(err)
	}
	r, err := topology.NewRoutes(g, diffShape.M+diffShape.U+1)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestEngineMatchesOracle is the judge of the route-at-collect engine: over
// every in-tree channel family, both in-process drivers, with and without
// recorded views, and on a restarted engine, the run's result, Trace
// sequence and Sink stream must equal the queue-drain-sort oracle's.
func TestEngineMatchesOracle(t *testing.T) {
	drivers := []struct {
		name string
		d    round.Driver
	}{
		{"reference", round.Reference{}},
		{"goroutine", round.Goroutine{}},
	}
	for _, ch := range diffChannels {
		for _, views := range []bool{false, true} {
			base := round.Config{Rounds: diffShape.Depth(), RecordViews: views}

			var want transcript
			cfg := observe(base, &want)
			cfg.Channel = ch.mk(t)
			want.Result = newOracle(diffNodes(t), cfg).run()
			if want.Result.Delivered == 0 || len(want.Trace) != want.Result.Delivered {
				t.Fatalf("%s: oracle delivered %d, traced %d", ch.name, want.Result.Delivered, len(want.Trace))
			}

			for _, drv := range drivers {
				name := fmt.Sprintf("%s/%s/views=%v", ch.name, drv.name, views)
				var got transcript
				cfg := observe(base, &got)
				cfg.Channel = ch.mk(t)
				eng, err := round.NewEngine(diffNodes(t), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := drv.d.Drive(eng); err != nil {
					t.Fatal(err)
				}
				got.Result = eng.Finalize()
				compareTranscripts(t, name, &got, &want)

				if !ch.stateless {
					continue
				}
				// A restarted engine starts from whichever inbox set the
				// last run left current; it must not matter.
				got.Trace, got.Events = nil, nil
				if err := eng.Restart(diffNodes(t)); err != nil {
					t.Fatal(err)
				}
				if err := drv.d.Drive(eng); err != nil {
					t.Fatal(err)
				}
				got.Result = eng.Finalize()
				compareTranscripts(t, name+"/restarted", &got, &want)
			}
		}
	}
}

func compareTranscripts(t *testing.T, name string, got, want *transcript) {
	t.Helper()
	if !reflect.DeepEqual(got.Result, want.Result) {
		t.Errorf("%s: result differs from the oracle's\n got %+v\nwant %+v", name, got.Result, want.Result)
	}
	if !reflect.DeepEqual(got.Trace, want.Trace) {
		t.Errorf("%s: trace sequence differs from the oracle's (%d vs %d deliveries)", name, len(got.Trace), len(want.Trace))
	}
	if !reflect.DeepEqual(got.Events, want.Events) {
		t.Errorf("%s: event stream differs from the oracle's\n got %v\nwant %v", name, got.Events, want.Events)
	}
}

// scriptNode sends nothing; the scripted tests call Collect themselves.
type scriptNode struct{ id types.NodeID }

func (n scriptNode) ID() types.NodeID                        { return n.id }
func (scriptNode) Step(int, []types.Message) []types.Message { return nil }
func (scriptNode) Finish([]types.Message)                    {}
func (scriptNode) Decide() types.Value                       { return types.Default }
func scriptNodes(n int) []round.Node {
	nodes := make([]round.Node, n)
	for i := range nodes {
		nodes[i] = scriptNode{types.NodeID(i)}
	}
	return nodes
}

// collectStep is one scripted Collect call.
type collectStep struct {
	node int
	out  []types.Message
}

// deliverer is the part of the Driver contract a script exercises, common to
// the Engine and the oracle.
type deliverer interface {
	Deliver()
	Collect(i, r int, out []types.Message)
	Inbox(i int) []types.Message
}

// playRound opens round 1, feeds the script, closes the round and returns a
// copy of every inbox.
func playRound(d deliverer, n int, script []collectStep) [][]types.Message {
	d.Deliver()
	for _, s := range script {
		d.Collect(s.node, 1, s.out)
	}
	d.Deliver()
	inboxes := make([][]types.Message, n)
	for i := range inboxes {
		inboxes[i] = append([]types.Message(nil), d.Inbox(i)...)
	}
	return inboxes
}

// TestEngineSortsWhenArrivalIsUnsorted feeds hand-built Collect sequences no
// in-tree driver produces, so the sort-when-unsorted branch runs, and long
// in-order inboxes with runs of equal keys and different values, so the
// sort-skipped branch is checked against what the sort itself returns for
// them (first-write-wins ingestion makes the order of equal keys decide a
// value).
func TestEngineSortsWhenArrivalIsUnsorted(t *testing.T) {
	const n = 4
	claim := func(to types.NodeID, v types.Value, path ...types.NodeID) types.Message {
		return types.Message{To: to, Path: types.Path(path), Value: v}
	}
	// 40 sends from node 0 to node 3, in order, every key three times with
	// three values: longer than the insertion-sort cutoff of slices.SortFunc.
	var equalRuns []types.Message
	for p := 0; p < 14; p++ {
		for v := 0; v < 3; v++ {
			equalRuns = append(equalRuns, claim(3, types.Value(10*p+v), 0, types.NodeID(p)))
		}
	}
	reversed := append([]types.Message(nil), equalRuns...)
	for i, j := 0, len(reversed)-1; i < j; i, j = i+1, j-1 {
		reversed[i], reversed[j] = reversed[j], reversed[i]
	}
	scripts := map[string][]collectStep{
		"nodes out of order": {
			{2, []types.Message{claim(3, 1, 0, 2), claim(1, 2, 0, 2)}},
			{0, []types.Message{claim(3, 3, 0), claim(1, 4, 0)}},
			{1, []types.Message{claim(3, 5, 0, 1)}},
		},
		"paths out of order, equal keys": {
			{0, []types.Message{claim(1, 1, 0, 2), claim(1, 2, 0, 1), claim(1, 3, 0, 2), claim(1, 4, 0, 1)}},
			{2, []types.Message{claim(1, 5, 0, 2), claim(1, 6, 0, 2)}},
		},
		"one node collected twice": {
			{1, []types.Message{claim(2, 1, 0, 5)}},
			{0, []types.Message{claim(2, 2, 0, 5)}},
			{1, []types.Message{claim(2, 3, 0, 4)}},
		},
		"long in order with equal keys": {{0, equalRuns}},
		"long reversed":                 {{0, reversed}},
		"long in order then one early":  {{1, equalRuns}, {0, []types.Message{claim(3, 9, 0)}}},
	}
	sortedBranch := 0
	for name, script := range scripts {
		cfg := round.Config{Rounds: 1}
		eng, err := round.NewEngine(scriptNodes(n), cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := playRound(eng, n, script)
		want := playRound(newOracle(scriptNodes(n), cfg), n, script)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: inboxes differ from the oracle's\n got %v\nwant %v", name, got, want)
		}
		// The script reaches the sorting branch when some inbox is not in
		// the order its messages were collected in.
		arrival := make([][]types.Message, n)
		for _, s := range script {
			for _, m := range s.out {
				m.From, m.Round = types.NodeID(s.node), 1
				arrival[int(m.To)] = append(arrival[int(m.To)], m)
			}
		}
		for i := range arrival {
			if len(arrival[i]) > 0 && !reflect.DeepEqual(arrival[i], want[i]) {
				sortedBranch++
				break
			}
		}
	}
	if sortedBranch < 4 {
		t.Errorf("only %d scripts reached the sorting branch, want at least 4", sortedBranch)
	}
}

// TestEngineMatchesOracleOnRandomCollects is the property form: random
// Collect orders, a tiny path alphabet (so equal keys are common), random
// values, a duplicating and corrupting channel on top — inboxes and
// accounting must match the oracle's for every seed.
func TestEngineMatchesOracleOnRandomCollects(t *testing.T) {
	const n = 5
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var script []collectStep
		for c := rng.Intn(8) + 1; c > 0; c-- {
			s := collectStep{node: rng.Intn(n)}
			ordered := rng.Intn(2) == 0
			for k := rng.Intn(30); k > 0; k-- {
				m := types.Message{
					To:    types.NodeID(rng.Intn(n+2) - 1), // some out of range
					Value: types.Value(rng.Intn(4)),
					Path:  types.Path{0, types.NodeID(rng.Intn(3))}[:1+rng.Intn(2)],
				}
				s.out = append(s.out, m)
			}
			if ordered {
				types.SortMessages(s.out)
			}
			script = append(script, s)
		}
		mk := func() round.Config {
			ch, err := chaos.NewChannel(chaos.Compose(
				chaos.Injector{Kind: chaos.Duplicate, P: 0.3},
				chaos.Injector{Kind: chaos.CorruptValue, P: 0.5, Domain: []types.Value{8, 9}},
			), types.NewNodeSet(1, 3), seed, new(chaos.Counters))
			if err != nil {
				t.Fatal(err)
			}
			return round.Config{Rounds: 1, Channel: ch, RecordViews: true}
		}
		eng, err := round.NewEngine(scriptNodes(n), mk())
		if err != nil {
			t.Fatal(err)
		}
		oracle := newOracle(scriptNodes(n), mk())
		got, want := playRound(eng, n, script), playRound(oracle, n, script)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: inboxes differ from the oracle's\n got %v\nwant %v", seed, got, want)
		}
		if got, want := eng.Finalize(), oracle.Finalize(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: result differs from the oracle's\n got %+v\nwant %+v", seed, got, want)
		}
	}
}
