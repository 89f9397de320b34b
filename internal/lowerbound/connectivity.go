package lowerbound

import (
	"fmt"

	"degradable/internal/adversary"
	"degradable/internal/core"
	"degradable/internal/runner"
	"degradable/internal/spec"
	"degradable/internal/topology"
	"degradable/internal/transport"
	"degradable/internal/types"
)

// ConnectivityResult reports one run of the Theorem-3 experiment.
type ConnectivityResult struct {
	// Cut is the vertex connectivity of the topology used.
	Cut int
	// F is the number of faulty nodes (the proof's F2 cut subset).
	F int
	// Verdict is the m/u spec check of the run.
	Verdict spec.Verdict
	// Decisions maps nodes to decisions (diagnostics).
	Decisions map[types.NodeID]types.Value
	// DegradedDeliveries counts channel deliveries replaced by V_d.
	DegradedDeliveries int
}

// ConnectivityScenario runs the Theorem-3 proof's second fault scenario on a
// Bridge topology whose cut has the given size: the sender (in G1, value
// beta) is fault-free, and u faulty cut nodes rewrite every copy of a
// crossing message to alpha while behaving as alpha-liars in the protocol.
//
//   - cut = m+u:   the forged value alpha gathers u ≥ m+1 path copies and is
//     accepted by G2's channels; G2 decides alpha and condition D.3 is
//     violated — connectivity m+u is insufficient.
//   - cut = m+u+1: the true value holds m+1 copies too, the acceptance rule
//     degrades crossing deliveries to V_d at worst, and the spec holds.
//
// sideSize controls |G1| and |G2| (each at least 2 so that G2 has fault-free
// receivers). The run is BYZ(m,m) at N = 2·sideSize + cut, which must
// exceed 2m+u.
func ConnectivityScenario(m, u, cut, sideSize int, alpha, beta types.Value) (*ConnectivityResult, error) {
	if m < 0 || u < max(m, 1) {
		return nil, fmt.Errorf("lowerbound: infeasible m=%d u=%d", m, u)
	}
	if cut < u {
		return nil, fmt.Errorf("lowerbound: cut %d smaller than u=%d faulty cut nodes", cut, u)
	}
	if sideSize < 2 {
		return nil, fmt.Errorf("lowerbound: sideSize must be >= 2")
	}
	g, err := topology.Bridge(sideSize, cut, sideSize)
	if err != nil {
		return nil, err
	}
	n := g.N()
	_, cutNodes, _ := topology.BridgeParts(sideSize, cut, sideSize)

	// The faulty cut subset F2: the last u cut nodes.
	faultyIDs := cutNodes[len(cutNodes)-u:]
	corrupt := make(map[types.NodeID]transport.RelayCorruptor, u)
	strategies := make(map[types.NodeID]adversary.Strategy, u)
	for _, id := range faultyIDs {
		corrupt[id] = transport.FlipTo(alpha)
		strategies[id] = adversary.Lie{Value: alpha}
	}

	routes, err := topology.NewRoutes(g, m+u+1)
	if err != nil {
		return nil, err
	}
	ch, err := transport.New(routes, m, u, corrupt, false)
	if err != nil {
		return nil, err
	}
	in := runner.Instance{
		Protocol:    core.Params{N: n, M: m, U: u},
		SenderValue: beta,
		Strategies:  strategies,
		Channel:     ch,
	}
	res, verdict, err := in.Run()
	if err != nil {
		return nil, err
	}
	return &ConnectivityResult{
		Cut:                cut,
		F:                  u,
		Verdict:            verdict,
		Decisions:          res.Decisions,
		DegradedDeliveries: int(ch.Stats().Counter(transport.CounterNames[transport.CounterDegraded])),
	}, nil
}
