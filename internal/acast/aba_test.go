package acast

import (
	"testing"

	"degradable/internal/round"
	"degradable/internal/types"
)

func abaFleet(p Params, inputs []uint8, coinSeed uint64) []round.AsyncNode {
	nodes := make([]round.AsyncNode, p.N)
	for i := range nodes {
		nodes[i] = NewABA(types.NodeID(i), p, inputs[i], coinSeed)
	}
	return nodes
}

// checkABASafety asserts agreement (all decisions equal) and validity (the
// decision is some honest input) over whatever subset decided.
func checkABASafety(t *testing.T, label string, inputs []uint8, decisions map[types.NodeID]types.Value) {
	t.Helper()
	var first types.Value = -1
	for id, v := range decisions {
		if v != 0 && v != 1 {
			t.Fatalf("%s: node %d decided non-bit %v", label, id, v)
		}
		if first == -1 {
			first = v
		} else if v != first {
			t.Fatalf("%s: agreement violated: %v", label, decisions)
		}
	}
	if first == -1 {
		return // nobody decided: vacuously safe
	}
	valid := false
	for _, in := range inputs {
		if types.Value(in) == first {
			valid = true
		}
	}
	if !valid {
		t.Fatalf("%s: decided %v, not any node's input %v", label, first, inputs)
	}
}

func TestABAUnanimousDecidesInput(t *testing.T) {
	p := Params{N: 4, F: 1}
	for _, bit := range []uint8{0, 1} {
		inputs := []uint8{bit, bit, bit, bit}
		for seed := int64(0); seed < 20; seed++ {
			res, err := round.RunAsync(abaFleet(p, inputs, 77), round.AsyncConfig{Policy: round.NewReorder(seed)})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Terminated {
				t.Fatalf("bit=%d seed=%d: fault-free unanimous ABA did not terminate", bit, seed)
			}
			for id, v := range res.Decisions {
				if v != types.Value(bit) {
					t.Fatalf("bit=%d seed=%d: node %d decided %v (validity: unanimous input must win)", bit, seed, id, v)
				}
			}
		}
	}
}

func TestABAMixedInputsAgree(t *testing.T) {
	p := Params{N: 4, F: 1}
	for mask := 1; mask < 15; mask++ { // every non-unanimous input vector
		inputs := []uint8{uint8(mask) & 1, uint8(mask>>1) & 1, uint8(mask>>2) & 1, uint8(mask>>3) & 1}
		for seed := int64(0); seed < 10; seed++ {
			for _, tc := range []struct {
				name string
				pol  round.Policy
			}{
				{"reorder", round.NewReorder(seed)},
				{"adversarial", round.NewAdversarial(seed)},
			} {
				res, err := round.RunAsync(abaFleet(p, inputs, uint64(seed)*13+1), round.AsyncConfig{Policy: tc.pol})
				if err != nil {
					t.Fatal(err)
				}
				checkABASafety(t, tc.name, inputs, res.Decisions)
				if !res.Terminated && !res.Starved && res.Delivered < 64*p.N*p.N {
					t.Fatalf("%s mask=%d seed=%d: stalled with budget left (delivered %d)", tc.name, mask, seed, res.Delivered)
				}
			}
		}
	}
}

// TestABAStarvationSafety is the adversarial-scheduler starvation proof:
// withholding every delivery to one honest node blocks its termination —
// and may block the round structure entirely — but safety is never
// violated. Whatever subset decides, decisions agree and are valid, and
// the starved node never decides at all.
func TestABAStarvationSafety(t *testing.T) {
	p := Params{N: 4, F: 1}
	for mask := 0; mask < 16; mask++ {
		inputs := []uint8{uint8(mask) & 1, uint8(mask>>1) & 1, uint8(mask>>2) & 1, uint8(mask>>3) & 1}
		for target := types.NodeID(0); target < 4; target++ {
			res, err := round.RunAsync(abaFleet(p, inputs, 99), round.AsyncConfig{Policy: &round.Starve{Target: target}})
			if err != nil {
				t.Fatal(err)
			}
			if res.Terminated {
				t.Fatalf("mask=%d target=%d: starved run claims full termination", mask, target)
			}
			if _, ok := res.Decisions[target]; ok && res.DeliveriesToDecision[target] > 0 {
				t.Fatalf("mask=%d target=%d: starved node decided after deliveries it never got", mask, target)
			}
			checkABASafety(t, "starve", inputs, res.Decisions)
		}
	}
}

// TestABAFarFutureRoundsBounded: Round is protocol-owned and unvalidated in
// async mode, so a Byzantine peer can pack arbitrary round numbers into
// BVAL/AUX. State allocation must be bounded to a window above the node's
// current round — not grow with whatever the attacker sends.
func TestABAFarFutureRoundsBounded(t *testing.T) {
	p := Params{N: 4, F: 1}
	a := NewABA(0, p, 1, 7)
	a.Start()
	base := len(a.rounds)
	for i := 0; i < 1000; i++ {
		r := abaRoundWindow + 2 + i // every round beyond the window, distinct
		kind := KindBval
		if i%2 == 1 {
			kind = KindAux
		}
		a.OnDeliver(types.Message{From: 2, To: 0, Round: r<<kindBits | kind, Value: 1})
	}
	if len(a.rounds) != base {
		t.Errorf("round state grew from %d to %d on far-future Byzantine rounds", base, len(a.rounds))
	}
	// A legitimately fast peer inside the window must still be buffered; the
	// round state is dense, so it now reaches the window's far edge.
	a.OnDeliver(types.Message{From: 2, To: 0, Round: (a.round+abaRoundWindow)<<kindBits | KindBval, Value: 1})
	if len(a.rounds) != a.round+abaRoundWindow {
		t.Errorf("in-window round not buffered: rounds=%d, want %d", len(a.rounds), a.round+abaRoundWindow)
	}
}

func TestABABeyondToleranceRejected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewABA accepted n=3, f=1 (n ≤ 3f)")
		}
	}()
	NewABA(0, Params{N: 3, F: 1}, 0, 1)
}
