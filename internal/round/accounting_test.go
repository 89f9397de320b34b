package round

import (
	"reflect"
	"testing"

	"degradable/internal/types"
)

// newSystem lives in goroutine_test.go; these tests pin the engine's traffic
// accounting contract: Messages counts sends before the channel, Delivered
// and Bytes count what actually arrived.

func TestAccountingUnderDrops(t *testing.T) {
	var seen int
	var bytes int
	res, err := Run(newSystem(4, 7), Config{
		Rounds: 2,
		// Drop every echo about the sender's round-1 value (Path length 2).
		Channel: FilterChannel{Keep: func(m types.Message) bool { return len(m.Path) < 2 }},
		Trace: func(m types.Message) {
			seen++
			bytes += 8 + 4*len(m.Path)
		},
	}, Goroutine{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 9 {
		t.Errorf("Messages = %d, want 9 (sends are counted before drops)", res.Messages)
	}
	if res.Delivered != 3 {
		t.Errorf("Delivered = %d, want 3 (the round-1 broadcasts)", res.Delivered)
	}
	if res.Delivered != seen {
		t.Errorf("Delivered = %d but Trace observed %d", res.Delivered, seen)
	}
	if res.Bytes != bytes {
		t.Errorf("Bytes = %d, want %d (8 + 4·|Path| per delivered message)", res.Bytes, bytes)
	}
}

func TestNilChannelMatchesPerfectChannel(t *testing.T) {
	a, err := Run(newSystem(4, 7), Config{Rounds: 2}, Goroutine{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(newSystem(4, 7), Config{Rounds: 2, Channel: PerfectChannel{}}, Goroutine{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("nil channel and PerfectChannel diverge:\n%+v\n%+v", a, b)
	}
}

// fanOut duplicates every message k times; the single-delivery Deliver
// returns the first copy, exercising both halves of the Expander contract.
type fanOut struct{ k int }

func (f fanOut) Deliver(m types.Message) (types.Message, bool) { return m, true }

func (f fanOut) DeliverAll(m types.Message) []types.Message {
	out := make([]types.Message, f.k)
	for i := range out {
		out[i] = m
	}
	return out
}

var _ Expander = fanOut{}

func TestExpanderCountsEveryCopy(t *testing.T) {
	base, err := Run(newSystem(4, 7), Config{Rounds: 2}, Goroutine{})
	if err != nil {
		t.Fatal(err)
	}
	dup, err := Run(newSystem(4, 7), Config{Rounds: 2, Channel: fanOut{k: 2}}, Goroutine{})
	if err != nil {
		t.Fatal(err)
	}
	if dup.Messages != base.Messages {
		t.Errorf("Messages = %d, want %d (duplication happens after the send count)", dup.Messages, base.Messages)
	}
	if dup.Delivered != 2*base.Delivered {
		t.Errorf("Delivered = %d, want %d", dup.Delivered, 2*base.Delivered)
	}
	if dup.Bytes != 2*base.Bytes {
		t.Errorf("Bytes = %d, want %d", dup.Bytes, 2*base.Bytes)
	}
	if !reflect.DeepEqual(dup.Decisions, base.Decisions) {
		t.Errorf("duplication changed decisions: %v vs %v", dup.Decisions, base.Decisions)
	}
}

func TestExpanderEmptySliceDrops(t *testing.T) {
	res, err := Run(newSystem(4, 7), Config{Rounds: 2, Channel: fanOut{k: 0}}, Goroutine{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 0 || res.Bytes != 0 {
		t.Errorf("Delivered=%d Bytes=%d, want 0 (empty expansion is a drop)", res.Delivered, res.Bytes)
	}
	if res.Messages != 9 {
		t.Errorf("Messages = %d, want 9", res.Messages)
	}
}
