package core

import (
	"errors"
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
		{"minimal byzantine", Params{N: 4, M: 1, U: 1}, false},
		{"paper 1/2", Params{N: 5, M: 1, U: 2}, false},
		{"paper 2/2", Params{N: 7, M: 2, U: 2}, false},
		{"paper 1/4", Params{N: 7, M: 1, U: 4}, false},
		{"paper 0/6", Params{N: 7, M: 0, U: 6}, false},
		{"degenerate 0/1", Params{N: 2, M: 0, U: 1}, false},
		{"too few nodes", Params{N: 4, M: 1, U: 2}, true},
		{"m > u", Params{N: 9, M: 2, U: 1}, true},
		{"negative m", Params{N: 5, M: -1, U: 2}, true},
		{"zero u", Params{N: 5, M: 0, U: 0}, true},
		{"sender out of range", Params{N: 5, M: 1, U: 2, Sender: 5}, true},
		{"sender negative", Params{N: 5, M: 1, U: 2, Sender: -1}, true},
		{"nonzero sender ok", Params{N: 5, M: 1, U: 2, Sender: 4}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.p.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate(%+v) = %v, wantErr %v", tt.p, err, tt.wantErr)
			}
		})
	}
}

func TestMinNodes(t *testing.T) {
	// The paper's §2 table: minimum nodes for m, u.
	tests := []struct {
		m, u, want int
	}{
		{0, 1, 2}, {0, 2, 3}, {0, 3, 4}, {0, 4, 5}, {0, 5, 6}, {0, 6, 7},
		{1, 1, 4}, {1, 2, 5}, {1, 3, 6}, {1, 4, 7}, {1, 5, 8}, {1, 6, 9},
		{2, 2, 7}, {2, 3, 8}, {2, 4, 9}, {2, 5, 10}, {2, 6, 11},
		{3, 3, 10}, {3, 4, 11}, {3, 5, 12}, {3, 6, 13},
	}
	for _, tt := range tests {
		got, err := MinNodes(tt.m, tt.u)
		if err != nil {
			t.Errorf("MinNodes(%d,%d): %v", tt.m, tt.u, err)
			continue
		}
		if got != tt.want {
			t.Errorf("MinNodes(%d,%d) = %d, want %d", tt.m, tt.u, got, tt.want)
		}
	}
	// Infeasible cells of the table (m > u) and bad inputs.
	for _, bad := range [][2]int{{2, 1}, {3, 2}, {1, 0}, {-1, 1}} {
		if _, err := MinNodes(bad[0], bad[1]); err == nil {
			t.Errorf("MinNodes(%d,%d) should error", bad[0], bad[1])
		}
	}
}

func TestMinConnectivity(t *testing.T) {
	tests := []struct{ m, u, want int }{
		{1, 1, 3}, {1, 2, 4}, {2, 2, 5}, {0, 3, 4},
	}
	for _, tt := range tests {
		got, err := MinConnectivity(tt.m, tt.u)
		if err != nil {
			t.Fatalf("MinConnectivity(%d,%d): %v", tt.m, tt.u, err)
		}
		if got != tt.want {
			t.Errorf("MinConnectivity(%d,%d) = %d, want %d", tt.m, tt.u, got, tt.want)
		}
	}
	if _, err := MinConnectivity(3, 2); err == nil {
		t.Error("MinConnectivity(3,2) should error")
	}
}

func TestDepth(t *testing.T) {
	tests := []struct {
		p    Params
		want int
	}{
		{Params{N: 5, M: 1, U: 2}, 2},
		{Params{N: 7, M: 2, U: 2}, 3},
		{Params{N: 10, M: 3, U: 3}, 4},
		{Params{N: 7, M: 0, U: 6}, 2},
		{Params{N: 2, M: 0, U: 1}, 1},
	}
	for _, tt := range tests {
		if got := tt.p.Depth(); got != tt.want {
			t.Errorf("Depth(%+v) = %d, want %d", tt.p, got, tt.want)
		}
	}
}

// configs lists the instance shapes exercised by the battery tests: every
// feasible (m, u) with small N, including minimum-size and slack systems.
func configs() []Params {
	return []Params{
		{N: 2, M: 0, U: 1},
		{N: 3, M: 0, U: 2},
		{N: 4, M: 0, U: 3},
		{N: 4, M: 1, U: 1},
		{N: 5, M: 1, U: 1},
		{N: 5, M: 1, U: 2},
		{N: 6, M: 1, U: 2},
		{N: 6, M: 1, U: 3},
		{N: 7, M: 1, U: 4},
		{N: 7, M: 2, U: 2},
		{N: 8, M: 2, U: 3},
	}
}

func TestNoFaultsAgreesOnSenderValue(t *testing.T) {
	for _, p := range configs() {
		p := p
		t.Run(fmt.Sprintf("N%d_m%d_u%d", p.N, p.M, p.U), func(t *testing.T) {
			in := runner.Instance{Protocol: p, SenderValue: alpha}
			res, verdict, err := in.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !verdict.OK || verdict.Condition != "D.1" {
				t.Fatalf("verdict = %+v", verdict)
			}
			for id, d := range res.Decisions {
				if d != alpha {
					t.Errorf("node %d decided %v", int(id), d)
				}
			}
		})
	}
}

// TestBatteryAllFaultSets is the main Theorem 1 check: for every config,
// every fault set of size 0..u, and every battery scenario, the spec verdict
// must hold, and graceful degradation (≥ m+1 fault-free nodes on one value)
// must hold whenever f ≤ u.
func TestBatteryAllFaultSets(t *testing.T) {
	for _, p := range configs() {
		p := p
		t.Run(fmt.Sprintf("N%d_m%d_u%d", p.N, p.M, p.U), func(t *testing.T) {
			runBattery(t, p)
		})
	}
}

func runBattery(t *testing.T, p Params) {
	t.Helper()
	all := make([]types.NodeID, p.N)
	for i := range all {
		all[i] = types.NodeID(i)
	}
	for f := 0; f <= p.U; f++ {
		types.Subsets(all, f, func(faulty types.NodeSet) bool {
			honest := make([]types.NodeID, 0, p.N)
			for _, id := range all {
				if !faulty.Contains(id) {
					honest = append(honest, id)
				}
			}
			ctx := adversary.Context{
				N:           p.N,
				Sender:      p.Sender,
				SenderValue: alpha,
				Alt:         beta,
				Honest:      honest,
			}
			for _, sc := range adversary.Battery() {
				strategies := sc.Build(faulty.IDs(), 1234, ctx)
				in := runner.Instance{Protocol: p, SenderValue: alpha, Strategies: strategies}
				_, verdict, err := in.Run()
				if err != nil {
					t.Fatalf("faulty=%v scenario=%s: %v", faulty, sc.Name, err)
				}
				if !verdict.OK {
					t.Errorf("N=%d m=%d u=%d faulty=%v scenario=%s: %s violated: %s",
						p.N, p.M, p.U, faulty, sc.Name, verdict.Condition, verdict.Reason)
				}
				if !verdict.Graceful {
					t.Errorf("N=%d m=%d u=%d faulty=%v scenario=%s: graceful degradation failed (classes %v)",
						p.N, p.M, p.U, faulty, sc.Name, verdict.Classes)
				}
			}
			return !t.Failed()
		})
		if t.Failed() {
			return
		}
	}
}

// TestMUEqualsByzantineAgreement: with m = u the protocol is exactly
// Lamport's Byzantine agreement — D.1/D.2 must hold for all f ≤ m even under
// the strongest battery attacks, with N = 3m+1.
func TestMUEqualsByzantineAgreement(t *testing.T) {
	p := Params{N: 7, M: 2, U: 2}
	all := []types.NodeID{0, 1, 2, 3, 4, 5, 6}
	types.Subsets(all, 2, func(faulty types.NodeSet) bool {
		honest := make([]types.NodeID, 0, p.N)
		for _, id := range all {
			if !faulty.Contains(id) {
				honest = append(honest, id)
			}
		}
		ctx := adversary.Context{N: p.N, Sender: 0, SenderValue: alpha, Alt: beta, Honest: honest}
		for _, sc := range adversary.Battery() {
			in := runner.Instance{
				Protocol:    p,
				SenderValue: alpha,
				Strategies:  sc.Build(faulty.IDs(), 99, ctx),
			}
			_, verdict, err := in.Run()
			if err != nil {
				t.Fatal(err)
			}
			if verdict.Regime != spec.RegimeClassic {
				t.Fatalf("f=2 should be classic regime for m=2, got %v", verdict.Regime)
			}
			if !verdict.OK {
				t.Errorf("faulty=%v scenario=%s: %s", faulty, sc.Name, verdict.Reason)
			}
		}
		return !t.Failed()
	})
}

// TestDegradedSplitIsReachable documents that the degraded regime is not
// vacuous: some adversary with m < f ≤ u actually forces part of the
// fault-free receivers to the default value (otherwise D.3 would never bite
// and the protocol would secretly be better than claimed).
func TestDegradedSplitIsReachable(t *testing.T) {
	p := Params{N: 5, M: 1, U: 2}
	// Two faulty receivers silencing themselves starve the vote: each
	// fault-free receiver sees only 2 of 4 echo values; threshold is
	// n-1-m = 3. Sender value still arrives directly, but VOTE(3,4) fails.
	in := runner.Instance{
		Protocol:    p,
		SenderValue: alpha,
		Strategies: map[types.NodeID]adversary.Strategy{
			3: adversary.Silent{},
			4: adversary.Silent{},
		},
	}
	res, verdict, err := in.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !verdict.OK || verdict.Condition != "D.3" {
		t.Fatalf("verdict = %+v", verdict)
	}
	var defaults int
	for _, id := range []types.NodeID{1, 2} {
		if res.Decisions[id] == types.Default {
			defaults++
		}
	}
	if defaults == 0 {
		t.Skip("this particular adversary did not force a default; see exhaustive test")
	}
}

func TestNonZeroSender(t *testing.T) {
	p := Params{N: 5, M: 1, U: 2, Sender: 3}
	in := runner.Instance{
		Protocol:    p,
		SenderValue: beta,
		Strategies: map[types.NodeID]adversary.Strategy{
			0: adversary.Lie{Value: alpha},
		},
	}
	res, verdict, err := in.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !verdict.OK || verdict.Condition != "D.1" {
		t.Fatalf("verdict = %+v", verdict)
	}
	for _, id := range []types.NodeID{1, 2, 4} {
		if res.Decisions[id] != beta {
			t.Errorf("node %d decided %v, want %v", int(id), res.Decisions[id], beta)
		}
	}
}

func TestNodesErrorsOnInvalidParams(t *testing.T) {
	p := Params{N: 4, M: 1, U: 2} // N too small
	if _, err := p.Nodes(alpha); err == nil {
		t.Error("Nodes should fail validation")
	}
	if _, err := p.NewNode(0, alpha); err == nil {
		t.Error("NewNode should fail validation")
	}
}

func TestMessageComplexityShape(t *testing.T) {
	// Round counts must follow the relay schedule: round 1 has N-1 sends;
	// round r has N·(paths of length r-1 excluding self)·(N-1) total.
	p := Params{N: 5, M: 1, U: 2}
	in := runner.Instance{Protocol: p, SenderValue: alpha}
	res, _, err := in.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.PerRound[0] != 4 {
		t.Errorf("round 1 sends = %d, want 4", res.PerRound[0])
	}
	// Round 2: each of the 4 receivers relays path [0] to 4 peers = 16.
	// The sender has no path excluding itself, so sends nothing.
	if res.PerRound[1] != 16 {
		t.Errorf("round 2 sends = %d, want 16", res.PerRound[1])
	}
}

func TestSentinelErrors(t *testing.T) {
	err := Params{N: 4, M: 1, U: 2}.Validate()
	if !errors.Is(err, ErrTooFewNodes) {
		t.Errorf("undersized N should wrap ErrTooFewNodes, got %v", err)
	}
	err = Params{N: 9, M: 2, U: 1}.Validate()
	if !errors.Is(err, ErrInfeasible) {
		t.Errorf("m > u should wrap ErrInfeasible, got %v", err)
	}
	if _, err := MinNodes(2, 1); !errors.Is(err, ErrInfeasible) {
		t.Errorf("MinNodes infeasible should wrap ErrInfeasible, got %v", err)
	}
	if _, err := MinConnectivity(-1, 1); !errors.Is(err, ErrInfeasible) {
		t.Errorf("MinConnectivity infeasible should wrap ErrInfeasible, got %v", err)
	}
}
