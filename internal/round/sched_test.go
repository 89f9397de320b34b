package round

import (
	"fmt"
	"reflect"
	"testing"

	"degradable/internal/types"
)

// drainOrder runs a policy-driven scheduler over the given sends and
// returns the delivery order.
func drainOrder(t *testing.T, p Policy, sends []types.Message) []types.Message {
	t.Helper()
	s := NewScheduler(p, nil)
	for _, m := range sends {
		s.Enqueue(m)
	}
	var got []types.Message
	s.Drain(func(m types.Message) { got = append(got, m) })
	return got
}

func sends(n int) []types.Message {
	out := make([]types.Message, n)
	for i := range out {
		out[i] = types.Message{From: 0, To: types.NodeID(1 + i%3), Value: types.Value(i)}
	}
	return out
}

func TestLockstepAndFIFOPreserveEnqueueOrder(t *testing.T) {
	in := sends(17)
	for _, p := range []Policy{&Lockstep{}, &FIFO{}} {
		got := drainOrder(t, p, in)
		if !reflect.DeepEqual(got, in) {
			t.Errorf("%T: delivery order differs from enqueue order", p)
		}
	}
}

func TestSeededPoliciesReplayIdentically(t *testing.T) {
	in := sends(23)
	mks := map[string]func() Policy{
		"reorder":     func() Policy { return NewReorder(7) },
		"delay":       func() Policy { return NewDelay(7, 8) },
		"adversarial": func() Policy { return NewAdversarial(7) },
	}
	for name, mk := range mks {
		a := drainOrder(t, mk(), in)
		b := drainOrder(t, mk(), in)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, different schedule", name)
		}
		if len(a) != len(in) {
			t.Errorf("%s: delivered %d of %d (non-withholding policies must deliver everything)", name, len(a), len(in))
		}
	}
	if a, b := drainOrder(t, NewReorder(1), in), drainOrder(t, NewReorder(2), in); reflect.DeepEqual(a, b) {
		t.Error("reorder: different seeds produced the same schedule (suspicious)")
	}
}

func TestStarveWithholdsOnlyTheTarget(t *testing.T) {
	in := sends(12) // recipients cycle 1,2,3
	s := NewScheduler(&Starve{Target: 2}, nil)
	for _, m := range in {
		s.Enqueue(m)
	}
	var got []types.Message
	s.Drain(func(m types.Message) { got = append(got, m) })
	for _, m := range got {
		if m.To == 2 {
			t.Fatalf("starved node 2 received %v", m)
		}
	}
	if !s.Starved() {
		t.Fatal("scheduler should report starvation: node-2 sends remain queued")
	}
	want := 0
	for _, m := range in {
		if m.To != 2 {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("delivered %d non-target sends, want %d", len(got), want)
	}
}

func TestParsePolicy(t *testing.T) {
	good := map[string]any{
		"":            &FIFO{},
		"fifo":        &FIFO{},
		"reorder":     (*Reorder)(nil),
		"delay":       (*Delay)(nil),
		"delay:4":     (*Delay)(nil),
		"adversarial": (*Adversarial)(nil),
		"starve:3":    &Starve{},
	}
	for spec, proto := range good {
		p, err := ParsePolicy(spec, 42)
		if err != nil {
			t.Errorf("ParsePolicy(%q): %v", spec, err)
			continue
		}
		if reflect.TypeOf(p) != reflect.TypeOf(proto) {
			t.Errorf("ParsePolicy(%q) = %T, want %T", spec, p, proto)
		}
	}
	if p, err := ParsePolicy("starve:3", 0); err != nil || p.(*Starve).Target != 3 {
		t.Errorf("starve:3 = %v, %v", p, err)
	}
	if p, err := ParsePolicy("delay:4", 0); err != nil || p.(*Delay).Max != 4 {
		t.Errorf("delay:4 = %v, %v", p, err)
	}
	for _, spec := range []string{
		"starve", "starve:x", "delay:x", "lifo", "starve:1:2",
		":1", "fifo:9", "fifo:", "reorder:x", "adversarial:1", "starve:-1", "delay:0", "delay:",
	} {
		if _, err := ParsePolicy(spec, 0); err == nil {
			t.Errorf("ParsePolicy(%q): accepted", spec)
		}
	}
}

// TestEnginePolicyInvariance pins the refactor's central claim: because the
// round barrier sorts every inbox, any non-withholding intra-round delivery
// order yields byte-identical synchronous results — lockstep really is just
// a policy over the scheduler core. The wide fleet sends 480 messages in each
// of its rounds, so the engine's queued path (Enqueue → Drain → Reset on one
// reused scheduler) runs over several blockQueue blocks, and a second pass
// after Restart runs it on the buffers the first pass left behind.
func TestEnginePolicyInvariance(t *testing.T) {
	small := func() []Node {
		return []Node{
			&echoNode{id: 0, sends: []types.Message{msg(1, 10), msg(2, 11), msg(3, 12)}},
			&echoNode{id: 1, sends: []types.Message{msg(0, 20), msg(2, 21)}},
			&echoNode{id: 2, sends: []types.Message{msg(3, 30)}},
			&echoNode{id: 3, sends: []types.Message{msg(0, 40), msg(1, 41), msg(2, 42)}},
		}
	}
	wide := func() []Node {
		const n = 16
		nodes := make([]Node, n)
		for i := range nodes {
			nd := &echoNode{id: types.NodeID(i), everyRound: true}
			for j := 0; j < n; j++ {
				if j != i {
					// Two sends a pair, told apart by Path: the inbox order
					// is on (From, Path, To), not on Value.
					to := types.NodeID(j)
					nd.sends = append(nd.sends, msg(to, types.Value(100*i+j)),
						types.Message{To: to, Path: types.Path{nd.id}, Value: types.Value(-i)})
				}
			}
			nodes[i] = nd
		}
		return nodes
	}
	for _, fleet := range []struct {
		name  string
		build func() []Node
	}{{"n=4", small}, {"n=16", wide}} {
		run := func(p Policy) string {
			eng, err := NewEngine(fleet.build(), Config{Rounds: 2, RecordViews: true, Policy: p})
			if err != nil {
				t.Fatal(err)
			}
			var out string
			for pass := 0; pass < 2; pass++ {
				if pass > 0 {
					if err := eng.Restart(fleet.build()); err != nil {
						t.Fatal(err)
					}
				}
				if err := (Reference{}).Drive(eng); err != nil {
					t.Fatal(err)
				}
				res := eng.Finalize()
				out += fmt.Sprintf("%v %v %d %d %d\n", res.Decisions, res.Views, res.Messages, res.Delivered, res.Bytes)
			}
			return out
		}
		base := run(nil)
		for _, tc := range []struct {
			name string
			p    Policy
		}{
			{"fifo", &FIFO{}},
			{"reorder", NewReorder(99)},
			{"delay", NewDelay(99, 8)},
			{"adversarial", NewAdversarial(99)},
		} {
			if got := run(tc.p); got != base {
				t.Errorf("%s: %s policy changed synchronous results:\n got %s\nwant %s", fleet.name, tc.name, got, base)
			}
		}
	}
}

// TestEngineStarvePolicyIsDetectableAbsence: a withholding policy inside
// the synchronous engine turns into per-round message loss at the barrier,
// not a hang — exactly the deadline-closed-rounds semantics.
func TestEngineStarvePolicyIsDetectableAbsence(t *testing.T) {
	nodes := []Node{
		&echoNode{id: 0, sends: []types.Message{msg(1, 10), msg(2, 11)}},
		&echoNode{id: 1, sends: []types.Message{msg(0, 20), msg(2, 21)}},
		&echoNode{id: 2, sends: []types.Message{msg(0, 30), msg(1, 31)}},
	}
	res, err := Run(nodes, Config{Rounds: 1, Policy: &Starve{Target: 2}}, Reference{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Decisions[2]; got != 0 {
		t.Errorf("starved node decided %v receipts, want 0", got)
	}
	if res.Messages != 6 || res.Delivered != 4 {
		t.Errorf("messages/delivered = %d/%d, want 6/4", res.Messages, res.Delivered)
	}
}
