package sm

import (
	"fmt"
	"testing"

	"degradable/internal/adversary"
	"degradable/internal/runner"
	"degradable/internal/spec"
	"degradable/internal/types"
)

const (
	alpha types.Value = 100
	beta  types.Value = 200
)

func TestValidate(t *testing.T) {
	tests := []struct {
		name    string
		p       Params
		wantErr bool
	}{
		{"SM(1) minimal", Params{N: 3, M: 1}, false},
		{"SM(2) minimal", Params{N: 4, M: 2}, false},
		{"SM(3) roomy", Params{N: 7, M: 3}, false},
		{"too few", Params{N: 2, M: 1}, true},
		{"zero m", Params{N: 4, M: 0}, true},
		{"bad sender", Params{N: 4, M: 1, Sender: 4}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.p.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

// run executes p with the sender holding alpha and the given nodes armed.
func run(t *testing.T, p Params, strategies map[types.NodeID]adversary.Strategy) (map[types.NodeID]types.Value, spec.Verdict) {
	t.Helper()
	res, verdict, err := runner.Instance{Protocol: p, SenderValue: alpha, Strategies: strategies}.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res.Decisions, verdict
}

func TestFaultFree(t *testing.T) {
	decisions, verdict := run(t, Params{N: 4, M: 2}, nil)
	for id, d := range decisions {
		if d != alpha {
			t.Errorf("node %d decided %v", int(id), d)
		}
	}
	if !verdict.OK || verdict.Condition != "D.1" {
		t.Errorf("verdict %+v, want D.1 held", verdict)
	}
}

// eachFaultSet calls fn with every fault set of at most m nodes of SM(m) at
// its minimum size N = m+2, for m = 1, 2, 3, one subtest per m.
func eachFaultSet(t *testing.T, fn func(t *testing.T, p Params, faulty types.NodeSet)) {
	for _, m := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("SM(%d)_N%d", m, m+2), func(t *testing.T) {
			p := Params{N: m + 2, M: m}
			all := make([]types.NodeID, p.N)
			for i := range all {
				all[i] = types.NodeID(i)
			}
			for f := 0; f <= m; f++ {
				types.Subsets(all, f, func(faulty types.NodeSet) bool {
					fn(t, p, faulty)
					return !t.Failed()
				})
			}
		})
	}
}

// evens is the set of even-numbered nodes of the largest system tested.
var evens = types.NewNodeSet(0, 2, 4)

// behaviours are adversarial pre-signing strategies, each armed on every
// node of a fault set.
var behaviours = []struct {
	name  string
	strat adversary.Strategy
}{
	{"silent", adversary.Silent{}},
	{"lie-beta", adversary.Lie{Value: beta}},
	{"equivocate-by-parity", adversary.TwoFaced{A: evens, ValueA: alpha, ValueB: beta}},
	{"selective-silence", adversary.Scripted{Omit: evens}},
	{"honest", adversary.Honest{}},
}

// The authenticated algorithm's headline: agreement with N = m+2 — far
// below the oral-messages 3m+1 — for every fault placement and a set of
// adversarial pre-signing behaviours. f ≤ m, so the verdict is D.1 or D.2:
// all fault-free receivers decide one value, the sender's when it is
// fault-free.
func TestAgreementAtMPlusTwo(t *testing.T) {
	eachFaultSet(t, func(t *testing.T, p Params, faulty types.NodeSet) {
		for _, b := range behaviours {
			strategies := make(map[types.NodeID]adversary.Strategy)
			for _, id := range faulty.IDs() {
				strategies[id] = b.strat
			}
			if _, verdict := run(t, p, strategies); !verdict.OK {
				t.Errorf("faulty=%v behaviour=%s: %s", faulty, b.name, verdict.Reason)
			}
		}
	})
}

// Every scenario of the adversary battery, on every fault set of at most m
// nodes at N = m+2, meets D.1/D.2 (574 runs). The battery's adaptive
// bandwagon scenario is never shown a tree on SM, which keeps none.
func TestBatteryAtMPlusTwo(t *testing.T) {
	eachFaultSet(t, func(t *testing.T, p Params, faulty types.NodeSet) {
		var honest []types.NodeID
		for i := 0; i < p.N; i++ {
			if !faulty.Contains(types.NodeID(i)) {
				honest = append(honest, types.NodeID(i))
			}
		}
		ctx := adversary.Context{N: p.N, Sender: p.Sender, SenderValue: alpha, Alt: beta, Honest: honest}
		for _, sc := range adversary.Battery() {
			if _, verdict := run(t, p, sc.Build(faulty.IDs(), 7, ctx)); !verdict.OK {
				t.Errorf("faulty=%v scenario=%s: %s", faulty, sc.Name, verdict.Reason)
			}
		}
	})
}

// An equivocating faulty sender drives everyone to the default — both
// values are certified, so choice(V) with |V| = 2 yields V_d.
func TestEquivocatingSenderYieldsDefault(t *testing.T) {
	decisions, _ := run(t, Params{N: 4, M: 1}, map[types.NodeID]adversary.Strategy{
		0: adversary.TwoFaced{A: types.NewNodeSet(1), ValueA: alpha, ValueB: beta},
	})
	for _, id := range []types.NodeID{1, 2, 3} {
		if d := decisions[id]; d != types.Default {
			t.Errorf("node %d decided %v, want V_d", int(id), d)
		}
	}
}

// A faulty relayer cannot launder a changed value: its re-signed chain
// fails prefix verification and is discarded, so agreement is unaffected.
func TestRelayTamperingIsImpotent(t *testing.T) {
	// ClaimSender tampers every relay (round ≥ 2) and sends round 1 honestly.
	decisions, _ := run(t, Params{N: 4, M: 2}, map[types.NodeID]adversary.Strategy{
		2: adversary.ClaimSender{Claim: beta},
	})
	for _, id := range []types.NodeID{1, 3} {
		if d := decisions[id]; d != alpha {
			t.Errorf("node %d decided %v despite signature protection", int(id), d)
		}
	}
}

// Arming goes through adversary.Wrap, which refuses an out-of-range node
// and a nil strategy.
func TestInstanceArmValidation(t *testing.T) {
	for _, strategies := range []map[types.NodeID]adversary.Strategy{
		{9: adversary.Silent{}},
		{1: nil},
	} {
		in := runner.Instance{Protocol: Params{N: 4, M: 1}, SenderValue: alpha, Strategies: strategies}
		if _, _, err := in.Run(); err == nil {
			t.Errorf("arming %v should error", strategies)
		}
	}
}

func TestNewNodeValidation(t *testing.T) {
	p := Params{N: 4, M: 1}
	if _, err := NewNode(p, 0, alpha, nil); err == nil {
		t.Error("nil authority should error")
	}
	if _, err := NewNode(p, 9, alpha, nil); err == nil {
		t.Error("bad id should error")
	}
	if _, err := (Params{N: 2, M: 1}).Nodes(alpha); err == nil {
		t.Error("invalid params should error")
	}
}

func TestDecideBeforeFinish(t *testing.T) {
	nodes, err := Params{N: 4, M: 1}.Nodes(alpha)
	if err != nil {
		t.Fatal(err)
	}
	if got := nodes[1].Decide(); got != types.Default {
		t.Errorf("undecided node reports %v", got)
	}
}
