// Package integration_test exercises whole-system scenarios that cross
// module boundaries: the §6 clock story feeding the agreement layer, the
// Figure-1 application running over a sparse network, and the full stack —
// Byzantine nodes, Byzantine relays, and spurious timeouts — at once.
package integration_test

import (
	"runtime"
	"testing"

	"degradable/internal/adversary"
	"degradable/internal/clocksync"
	"degradable/internal/core"
	"degradable/internal/round"
	"degradable/internal/runner"
	"degradable/internal/topology"
	"degradable/internal/transport"
	"degradable/internal/types"
	"degradable/internal/vote"
)

const (
	alpha types.Value = 100
	beta  types.Value = 200
)

// TestSection6EndToEnd plays out §6/§6.1 as one story: a 5-node 1/2 system
// whose clocks run degradable clock synchronization. With f = 2 > m the
// clock layer either keeps ≥ m+1 fault-free clocks synced or ≥ m+1 nodes
// detect the overload; in both cases the agreement layer proceeds under the
// relaxed message model (spurious timeouts possible) and must still deliver
// m/u-degradable agreement.
func TestSection6EndToEnd(t *testing.T) {
	const (
		m, u, n = 1, 2, 5
		eps     = 1.0
	)
	faultyIDs := []types.NodeID{3, 4}
	faulty := types.NewNodeSet(faultyIDs...)

	// Clock layer: two Byzantine clocks (same nodes as the Byzantine
	// processors — the pessimistic coupling of §6).
	cp := clocksync.Params{N: n, M: m, U: u, Epsilon: eps, MaxDrift: 1e-4}
	csys, err := clocksync.NewSystem(cp, clocksync.DriftedClocks(n, 17, 0.3, 1e-4),
		map[types.NodeID]clocksync.ReadFunc{
			3: clocksync.TwoFacedClock(types.NewNodeSet(0), +50, -50),
			4: clocksync.StuckAtZero(),
		})
	if err != nil {
		t.Fatal(err)
	}
	rep := csys.SyncRound(100)
	if !csys.ConditionHolds(rep, 100, 2*eps) {
		t.Fatal("degradable clock sync condition failed; premise of §6.1 broken")
	}

	// Agreement layer: if fewer than all fault-free clocks stayed synced,
	// timeouts may fire spuriously — model with message drops. The §6.1
	// argument says the algorithm still achieves m/u-degradable agreement.
	dropProb := 0.0
	if rep.Synced.Len() < n-len(faultyIDs) {
		dropProb = 0.25
	}
	p := core.Params{N: n, M: m, U: u}
	for seed := int64(0); seed < 10; seed++ {
		in := runner.Instance{
			Protocol:    p,
			SenderValue: alpha,
			Strategies: map[types.NodeID]adversary.Strategy{
				3: adversary.Lie{Value: beta},
				4: adversary.Silent{},
			},
			Channel: round.NewRelaxedChannel(dropProb, seed, faulty),
		}
		_, verdict, err := in.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !verdict.OK {
			t.Errorf("seed %d: %s violated under §6.1 relaxation: %s", seed, verdict.Condition, verdict.Reason)
		}
		if !verdict.Graceful {
			t.Errorf("seed %d: graceful degradation failed", seed)
		}
	}
}

// TestChannelSystemOverSparseNetwork runs the Figure-1(b) pattern with the
// distribution step routed over a Harary graph of connectivity exactly
// m+u+1: sensor → 1/2-degradable agreement over disjoint-path transport →
// per-channel computation → 3-out-of-4 entity vote. The entity must receive
// the correct value or V_d (condition C.2) even with two faults that corrupt
// both protocol traffic and relayed copies.
func TestChannelSystemOverSparseNetwork(t *testing.T) {
	const m, u = 1, 2
	// 9 nodes: sender 0 plus 8 "channel" nodes (we vote over the first 4
	// to keep the Figure-1 shape; the rest are pure relays/peers).
	g, err := topology.Harary(m+u+1, 9)
	if err != nil {
		t.Fatal(err)
	}
	routes, err := topology.NewRoutes(g, m+u+1)
	if err != nil {
		t.Fatal(err)
	}
	p := core.Params{N: 9, M: m, U: u}
	faultPairs := [][]types.NodeID{{2, 6}, {1, 3}, {5, 8}}
	for _, pair := range faultPairs {
		corrupt := make(map[types.NodeID]transport.RelayCorruptor, 2)
		strategies := make(map[types.NodeID]adversary.Strategy, 2)
		for _, id := range pair {
			corrupt[id] = transport.FlipTo(beta)
			strategies[id] = adversary.Lie{Value: beta}
		}
		ch, err := transport.New(routes, m, u, corrupt, true)
		if err != nil {
			t.Fatal(err)
		}
		in := runner.Instance{Protocol: p, SenderValue: alpha, Strategies: strategies, Channel: ch}
		res, verdict, err := in.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !verdict.OK {
			t.Fatalf("pair %v: %s", pair, verdict.Reason)
		}
		// External entity: 3-out-of-4 vote over channels 1..4 outputs
		// (Compute = identity here; decisions feed the voter directly).
		outputs := make([]types.Value, 0, 4)
		faultySet := types.NewNodeSet(pair...)
		for ch := 1; ch <= 4; ch++ {
			id := types.NodeID(ch)
			if faultySet.Contains(id) {
				outputs = append(outputs, beta) // worst-case faulty output
				continue
			}
			outputs = append(outputs, res.Decisions[id])
		}
		got, err := vote.KOfN(m+u, outputs)
		if err != nil {
			t.Fatal(err)
		}
		if got != alpha && got != types.Default {
			t.Errorf("pair %v: entity received unsafe %v (outputs %v)", pair, got, outputs)
		}
	}
}

// TestFullStack piles everything on at once: a sparse topology at minimum
// connectivity, faulty nodes lying in the protocol AND corrupting relayed
// copies AND spurious timeouts dropping fault-free messages (f > m). The
// spec must still hold.
func TestFullStack(t *testing.T) {
	const m, u = 1, 2
	g, err := topology.Harary(m+u+1, 9)
	if err != nil {
		t.Fatal(err)
	}
	routes, err := topology.NewRoutes(g, m+u+1)
	if err != nil {
		t.Fatal(err)
	}
	p := core.Params{N: 9, M: m, U: u}
	faultyIDs := []types.NodeID{4, 7}
	faulty := types.NewNodeSet(faultyIDs...)
	corrupt := map[types.NodeID]transport.RelayCorruptor{
		4: transport.FlipTo(beta),
		7: transport.DropAll(),
	}
	for seed := int64(0); seed < 5; seed++ {
		ch, err := transport.New(routes, m, u, corrupt, true)
		if err != nil {
			t.Fatal(err)
		}
		in := runner.Instance{
			Protocol:    p,
			SenderValue: alpha,
			Strategies: map[types.NodeID]adversary.Strategy{
				4: adversary.TwoFaced{A: types.NewNodeSet(1, 2, 3), ValueA: alpha, ValueB: beta},
				7: adversary.Crash{After: 1},
			},
			Channel: round.ChainChannel{ch, round.NewRelaxedChannel(0.15, seed, faulty)},
		}
		_, verdict, err := in.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !verdict.OK {
			t.Errorf("seed %d: %s violated: %s", seed, verdict.Condition, verdict.Reason)
		}
	}
}

// TestGoroutineHygiene ensures repeated runs do not leak engine goroutines.
func TestGoroutineHygiene(t *testing.T) {
	p := core.Params{N: 7, M: 2, U: 2}
	before := goroutineCount()
	for i := 0; i < 50; i++ {
		in := runner.Instance{Protocol: p, SenderValue: alpha}
		if _, _, err := in.Run(); err != nil {
			t.Fatal(err)
		}
	}
	after := goroutineCount()
	if after > before+5 {
		t.Errorf("goroutines grew from %d to %d across 50 runs", before, after)
	}
}

func goroutineCount() int { return runtime.NumGoroutine() }
