package round

import (
	"reflect"
	"testing"

	"degradable/internal/types"
)

// drainOrder runs a policy-driven scheduler over the given sends and
// returns the delivery order.
func drainOrder(t *testing.T, p Policy, sends []types.Message) []types.Message {
	t.Helper()
	s := NewScheduler(p)
	for _, m := range sends {
		s.Enqueue(m)
	}
	var got []types.Message
	for m, ok := s.Next(); ok; m, ok = s.Next() {
		got = append(got, m)
	}
	return got
}

func sends(n int) []types.Message {
	out := make([]types.Message, n)
	for i := range out {
		out[i] = types.Message{From: 0, To: types.NodeID(1 + i%3), Value: types.Value(i)}
	}
	return out
}

// TestLockstepAndFIFOPreserveEnqueueOrder: FIFO, also NewScheduler's nil
// default, delivers in enqueue order — the order the synchronous Engine
// routes in at Collect.
func TestLockstepAndFIFOPreserveEnqueueOrder(t *testing.T) {
	in := sends(17)
	for _, p := range []Policy{nil, &FIFO{}} {
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
	s := NewScheduler(&Starve{Target: 2})
	for _, m := range in {
		s.Enqueue(m)
	}
	var got []types.Message
	for m, ok := s.Next(); ok; m, ok = s.Next() {
		got = append(got, m)
	}
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
