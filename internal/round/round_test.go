package round

import (
	"reflect"
	"testing"

	"degradable/internal/types"
)

// echoNode is a minimal Node for exercising the engine directly: round 1 it
// sends its scripted messages, later rounds it sends nothing, and it decides
// the count of messages it ever received.
type echoNode struct {
	id      types.NodeID
	sends   []types.Message // sent in round 1
	got     []types.Message
	stepped []int
}

func (n *echoNode) ID() types.NodeID { return n.id }

func (n *echoNode) Step(round int, inbox []types.Message) []types.Message {
	n.stepped = append(n.stepped, round)
	for _, m := range inbox {
		n.got = append(n.got, m) // copy: the inbox buffer is reused
	}
	if round == 1 {
		return n.sends
	}
	return nil
}

func (n *echoNode) Finish(inbox []types.Message) {
	for _, m := range inbox {
		n.got = append(n.got, m)
	}
}

func (n *echoNode) Decide() types.Value { return types.Value(len(n.got)) }

func msg(to types.NodeID, v types.Value) types.Message {
	return types.Message{To: to, Value: v}
}

func TestNewEngineValidation(t *testing.T) {
	ok := []Node{&echoNode{id: 0}, &echoNode{id: 1}}
	cases := []struct {
		name  string
		nodes []Node
		cfg   Config
	}{
		{"no nodes", nil, Config{Rounds: 1}},
		{"zero rounds", ok, Config{}},
		{"id out of range", []Node{&echoNode{id: 0}, &echoNode{id: 7}}, Config{Rounds: 1}},
		{"negative id", []Node{&echoNode{id: -1}, &echoNode{id: 0}}, Config{Rounds: 1}},
		{"duplicate id", []Node{&echoNode{id: 1}, &echoNode{id: 1}}, Config{Rounds: 1}},
	}
	for _, tc := range cases {
		if _, err := NewEngine(tc.nodes, tc.cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := NewEngine(ok, Config{Rounds: 2}); err != nil {
		t.Errorf("valid engine rejected: %v", err)
	}
}

// TestCollectStampsAndFilters pins assumption (c) and the drop rules: From
// and Round are overwritten with the truth, and malformed or self-addressed
// sends never enter the run or its counters.
func TestCollectStampsAndFilters(t *testing.T) {
	nodes := []Node{
		&echoNode{id: 0, sends: []types.Message{
			{To: 1, From: 9, Round: 9, Value: 42}, // lies about source and round
			{To: 0, Value: 1},                     // self-addressed: dropped
			{To: -1, Value: 2},                    // out of range: dropped
			{To: 3, Value: 3},                     // out of range: dropped
		}},
		&echoNode{id: 1},
		&echoNode{id: 2},
	}
	res, err := Run(nodes, Config{Rounds: 1}, Reference{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 1 || res.Delivered != 1 || !reflect.DeepEqual(res.PerRound, []int{1}) {
		t.Fatalf("accounting: messages=%d delivered=%d perRound=%v", res.Messages, res.Delivered, res.PerRound)
	}
	got := nodes[1].(*echoNode).got
	if len(got) != 1 || got[0].From != 0 || got[0].Round != 1 || got[0].Value != 42 {
		t.Fatalf("delivery = %+v, want From=0 Round=1 Value=42", got)
	}
}

// TestDeliverSortsInbox pins the deterministic inbox order every driver
// must reproduce.
func TestDeliverSortsInbox(t *testing.T) {
	nodes := []Node{
		&echoNode{id: 0, sends: []types.Message{msg(2, 10)}},
		&echoNode{id: 1, sends: []types.Message{msg(2, 20)}},
		&echoNode{id: 2},
	}
	var order []types.NodeID
	_, err := Run(nodes, Config{Rounds: 2, Trace: func(m types.Message) {
		order = append(order, m.From)
	}}, Reference{})
	if err != nil {
		t.Fatal(err)
	}
	got := nodes[2].(*echoNode).got
	if len(got) != 2 || got[0].From != 0 || got[1].From != 1 {
		t.Fatalf("inbox not in SortMessages order: %+v", got)
	}
	if len(order) != 2 {
		t.Fatalf("trace saw %d deliveries, want 2", len(order))
	}
}

// TestChannelAndExpander pins the two delivery paths: a plain Channel can
// drop, and an Expander can duplicate (each copy delivered and counted).
func TestChannelAndExpander(t *testing.T) {
	build := func(ch Channel) (*Result, *echoNode) {
		dst := &echoNode{id: 1}
		nodes := []Node{&echoNode{id: 0, sends: []types.Message{msg(1, 5)}}, dst}
		res, err := Run(nodes, Config{Rounds: 1, Channel: ch}, Reference{})
		if err != nil {
			t.Fatal(err)
		}
		return res, dst
	}

	res, dst := build(FilterChannel{Keep: func(types.Message) bool { return false }})
	if res.Messages != 1 || res.Delivered != 0 || len(dst.got) != 0 {
		t.Errorf("drop-all: messages=%d delivered=%d got=%d", res.Messages, res.Delivered, len(dst.got))
	}

	res, dst = build(fanOut{k: 2})
	if res.Messages != 1 || res.Delivered != 2 || len(dst.got) != 2 {
		t.Errorf("duplicate: messages=%d delivered=%d got=%d", res.Messages, res.Delivered, len(dst.got))
	}
	if want := 2 * MessageBytes(msg(1, 5)); res.Bytes != want {
		t.Errorf("bytes=%d, want %d", res.Bytes, want)
	}
}

// TestReferenceSchedule pins the Driver contract end to end: R Step calls
// per node in order, views recorded per round, decisions collected by
// Finalize.
func TestReferenceSchedule(t *testing.T) {
	nodes := []Node{
		&echoNode{id: 0, sends: []types.Message{msg(1, 7), msg(2, 8)}},
		&echoNode{id: 1},
		&echoNode{id: 2},
	}
	res, err := Run(nodes, Config{Rounds: 3, RecordViews: true}, Reference{})
	if err != nil {
		t.Fatal(err)
	}
	for _, nd := range nodes {
		if got := nd.(*echoNode).stepped; !reflect.DeepEqual(got, []int{1, 2, 3}) {
			t.Errorf("node %d stepped %v, want [1 2 3]", nd.ID(), got)
		}
	}
	if res.Decisions[0] != 0 || res.Decisions[1] != 1 || res.Decisions[2] != 1 {
		t.Errorf("decisions = %v", res.Decisions)
	}
	if len(res.Views[1]) != 1 || res.Views[1][0].Value != 7 {
		t.Errorf("views[1] = %+v", res.Views[1])
	}
}

func TestRunNilDriver(t *testing.T) {
	if _, err := Run([]Node{&echoNode{id: 0}}, Config{Rounds: 1}, nil); err == nil {
		t.Error("nil driver accepted")
	}
}
