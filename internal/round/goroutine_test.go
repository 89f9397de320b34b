package round

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"degradable/internal/types"
	"degradable/internal/vote"
)

// Goroutine drives one worker goroutine per node, with the engine loop as
// the round barrier: the concurrent schedule the race detector exercises.
// It is a test twin of Reference — the barrier makes the two
// result-identical — exported so the round_test matrices keep their
// concurrent row.
type Goroutine struct{}

var _ Driver = Goroutine{}

type stepReq struct {
	round int
	inbox []types.Message
	final bool
}

// Drive implements Driver.
func (Goroutine) Drive(e *Engine) error {
	n := e.N()
	reqs := make([]chan stepReq, n)
	resps := make([]chan []types.Message, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		reqs[i] = make(chan stepReq)
		resps[i] = make(chan []types.Message)
		wg.Add(1)
		go func(nd Node, req <-chan stepReq, resp chan<- []types.Message) {
			defer wg.Done()
			for r := range req {
				if r.final {
					nd.Finish(r.inbox)
					resp <- nil
					continue
				}
				resp <- nd.Step(r.round, r.inbox)
			}
		}(e.Node(i), reqs[i], resps[i])
	}

	for r := 1; r <= e.Rounds(); r++ {
		e.Deliver()
		// Fan out the round to all workers, then collect in node-ID order.
		for i := 0; i < n; i++ {
			reqs[i] <- stepReq{round: r, inbox: e.Inbox(i)}
		}
		for i := 0; i < n; i++ {
			e.Collect(i, r, <-resps[i])
		}
	}
	// Final delivery of round-R messages.
	e.Deliver()
	for i := 0; i < n; i++ {
		reqs[i] <- stepReq{final: true, inbox: e.Inbox(i)}
	}
	for i := 0; i < n; i++ {
		<-resps[i]
	}
	for i := 0; i < n; i++ {
		close(reqs[i])
	}
	wg.Wait()
	return nil
}

// The tests in this file and accounting_test.go run a small protocol under
// the Goroutine driver, whose Step calls are concurrent with each other and
// with Collect, and pin what every driver must show: validation, source
// stamping, views, determinism and the built-in channels.

// broadcastNode is a minimal two-round protocol: node 0 broadcasts its value
// in round 1; in round 2 everyone echoes what it received; everyone decides
// the majority of (own received value + echoes).
type broadcastNode struct {
	id       types.NodeID
	n        int
	value    types.Value // only used by node 0
	received types.Value
	echoes   []types.Value
	decision types.Value
}

func (b *broadcastNode) ID() types.NodeID { return b.id }

func (b *broadcastNode) Step(round int, inbox []types.Message) []types.Message {
	switch round {
	case 1:
		if b.id != 0 {
			return nil
		}
		var out []types.Message
		for j := 1; j < b.n; j++ {
			out = append(out, types.Message{To: types.NodeID(j), Value: b.value, Path: types.Path{0}})
		}
		return out
	case 2:
		b.received = types.Default
		for _, m := range inbox {
			if m.From == 0 {
				b.received = m.Value
			}
		}
		if b.id == 0 {
			return nil
		}
		var out []types.Message
		for j := 1; j < b.n; j++ {
			if types.NodeID(j) == b.id {
				continue
			}
			out = append(out, types.Message{To: types.NodeID(j), Value: b.received, Path: types.Path{0, b.id}})
		}
		return out
	default:
		return nil
	}
}

func (b *broadcastNode) Finish(inbox []types.Message) {
	if b.id == 0 {
		b.decision = b.value
		return
	}
	vals := []types.Value{b.received}
	for _, m := range inbox {
		vals = append(vals, m.Value)
	}
	b.echoes = vals
	b.decision = vote.Majority(vals)
}

func (b *broadcastNode) Decide() types.Value { return b.decision }

// spoofNode tries to forge its From field; the engine must stamp the truth.
type spoofNode struct {
	broadcastNode
}

func (s *spoofNode) Step(round int, inbox []types.Message) []types.Message {
	out := s.broadcastNode.Step(round, inbox)
	for i := range out {
		out[i].From = 0 // attempt to impersonate the sender
	}
	return out
}

func newSystem(n int, v types.Value) []Node {
	nodes := make([]Node, n)
	for i := 0; i < n; i++ {
		nodes[i] = &broadcastNode{id: types.NodeID(i), n: n, value: v}
	}
	return nodes
}

func TestRunHappyPath(t *testing.T) {
	nodes := newSystem(4, 7)
	res, err := Run(nodes, Config{Rounds: 2}, Goroutine{})
	if err != nil {
		t.Fatal(err)
	}
	for id, d := range res.Decisions {
		if d != 7 {
			t.Errorf("node %d decided %v, want 7", int(id), d)
		}
	}
	// Round 1: 3 messages from node 0. Round 2: 3 receivers × 2 peers = 6.
	if res.PerRound[0] != 3 || res.PerRound[1] != 6 {
		t.Errorf("PerRound = %v", res.PerRound)
	}
	if res.Messages != 9 || res.Delivered != 9 {
		t.Errorf("Messages=%d Delivered=%d", res.Messages, res.Delivered)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(nil, Config{Rounds: 1}, Goroutine{}); err == nil {
		t.Error("empty node list should error")
	}
	if _, err := Run(newSystem(3, 1), Config{Rounds: 0}, Goroutine{}); err == nil {
		t.Error("zero rounds should error")
	}
	dup := []Node{
		&broadcastNode{id: 0, n: 2},
		&broadcastNode{id: 0, n: 2},
	}
	if _, err := Run(dup, Config{Rounds: 1}, Goroutine{}); err == nil {
		t.Error("duplicate IDs should error")
	}
	oor := []Node{
		&broadcastNode{id: 0, n: 2},
		&broadcastNode{id: 5, n: 2},
	}
	if _, err := Run(oor, Config{Rounds: 1}, Goroutine{}); err == nil {
		t.Error("out-of-range ID should error")
	}
}

func TestSourceStamping(t *testing.T) {
	// Node 2 spoofs From=0 on its echoes; receivers must see From=2.
	n := 4
	nodes := make([]Node, n)
	for i := 0; i < n; i++ {
		if i == 2 {
			nodes[i] = &spoofNode{broadcastNode{id: 2, n: n}}
		} else {
			nodes[i] = &broadcastNode{id: types.NodeID(i), n: n, value: 9}
		}
	}
	var sawSpoof bool
	_, err := Run(nodes, Config{Rounds: 2, Trace: func(m types.Message) {
		if m.Round == 2 && m.From == 0 {
			sawSpoof = true
		}
	}}, Goroutine{})
	if err != nil {
		t.Fatal(err)
	}
	if sawSpoof {
		t.Error("engine delivered a round-2 message claiming From=0; spoofing not prevented")
	}
}

func TestMalformedSendsDropped(t *testing.T) {
	// A node sending to itself or out of range: messages silently dropped.
	bad := &scriptNode{id: 0, script: map[int][]types.Message{
		1: {
			{To: 0, Value: 1},  // self
			{To: 9, Value: 1},  // out of range
			{To: -1, Value: 1}, // negative
			{To: 1, Value: 5},  // fine
		},
	}}
	peer := &scriptNode{id: 1}
	res, err := Run([]Node{bad, peer}, Config{Rounds: 1, RecordViews: true}, Goroutine{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 1 {
		t.Errorf("Messages = %d, want 1", res.Messages)
	}
	if len(res.Views[1]) != 1 || res.Views[1][0].Value != 5 {
		t.Errorf("Views[1] = %v", res.Views[1])
	}
}

// scriptNode replays a fixed per-round script.
type scriptNode struct {
	id     types.NodeID
	script map[int][]types.Message
	got    []types.Message
}

func (s *scriptNode) ID() types.NodeID { return s.id }
func (s *scriptNode) Step(round int, inbox []types.Message) []types.Message {
	s.got = append(s.got, inbox...)
	return s.script[round]
}
func (s *scriptNode) Finish(inbox []types.Message) { s.got = append(s.got, inbox...) }
func (s *scriptNode) Decide() types.Value          { return types.Default }

func TestViewsRecorded(t *testing.T) {
	nodes := newSystem(3, 4)
	res, err := Run(nodes, Config{Rounds: 2, RecordViews: true}, Goroutine{})
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 sees: round-1 value from 0, round-2 echo from 2.
	v := res.Views[1]
	if len(v) != 2 {
		t.Fatalf("Views[1] = %v", v)
	}
	if v[0].From != 0 || v[1].From != 2 {
		t.Errorf("Views[1] order = %v", v)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Result {
		res, err := Run(newSystem(5, 11), Config{Rounds: 2, RecordViews: true}, Goroutine{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Decisions, b.Decisions) {
		t.Error("decisions differ between identical runs")
	}
	if !reflect.DeepEqual(a.Views, b.Views) {
		t.Error("views differ between identical runs")
	}
}

func TestFilterChannel(t *testing.T) {
	// Drop everything from node 0: receivers see nothing, decide V_d.
	nodes := newSystem(4, 7)
	res, err := Run(nodes, Config{
		Rounds:  2,
		Channel: FilterChannel{Keep: func(m types.Message) bool { return m.From != 0 }},
	}, Goroutine{})
	if err != nil {
		t.Fatal(err)
	}
	for id, d := range res.Decisions {
		if id == 0 {
			continue
		}
		if d != types.Default {
			t.Errorf("node %d decided %v, want V_d after total drop", int(id), d)
		}
	}
	if res.Delivered >= res.Messages {
		t.Errorf("Delivered=%d should be < Messages=%d", res.Delivered, res.Messages)
	}
}

func TestRelaxedChannelDeterministic(t *testing.T) {
	mk := func() *Result {
		res, err := Run(newSystem(5, 3), Config{
			Rounds:  2,
			Channel: NewRelaxedChannel(0.3, 42, types.NewNodeSet(0)),
		}, Goroutine{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(), mk()
	if a.Delivered != b.Delivered || !reflect.DeepEqual(a.Decisions, b.Decisions) {
		t.Error("relaxed channel runs with same seed differ")
	}
	// Exempt node 0's sends are never dropped: round 1 has 4 messages all delivered.
	if a.PerRound[0] != 4 {
		t.Fatalf("PerRound[0] = %d", a.PerRound[0])
	}
}

func TestRelaxedChannelProbClamp(t *testing.T) {
	for _, tc := range []struct {
		prob, want float64
	}{
		{-0.5, 0},
		{math.NaN(), 0},
		{math.Inf(-1), 0},
		{0.25, 0.25},
		{1.5, 1},
		{math.Inf(1), 1},
	} {
		c := NewRelaxedChannel(tc.prob, 1, 0)
		if c.prob != tc.want {
			t.Errorf("prob %v clamps to %v, want %v", tc.prob, c.prob, tc.want)
		}
		if tc.want != 0 && tc.want != 1 {
			continue
		}
		for i := 0; i < 50; i++ {
			if _, ok := c.Deliver(types.Message{From: 1}); ok != (tc.want == 0) {
				t.Fatalf("prob %v: delivery %d ok=%v", tc.prob, i, ok)
			}
		}
	}
}

func TestChainChannel(t *testing.T) {
	add := FilterChannel{Keep: func(m types.Message) bool { return m.Value != 1 }}
	drop2 := FilterChannel{Keep: func(m types.Message) bool { return m.Value != 2 }}
	ch := ChainChannel{add, drop2}
	if _, ok := ch.Deliver(types.Message{Value: 1}); ok {
		t.Error("first stage should drop value 1")
	}
	if _, ok := ch.Deliver(types.Message{Value: 2}); ok {
		t.Error("second stage should drop value 2")
	}
	if m, ok := ch.Deliver(types.Message{Value: 3}); !ok || m.Value != 3 {
		t.Error("value 3 should pass")
	}
}
