// Package lowerbound turns the paper's impossibility proofs into executable
// artifacts.
//
// Theorem 2 (N ≥ 2m+u+1 is necessary) is reproduced two ways:
//
//   - Fig2Scenarios runs the exact three Figure-2 fault scenarios against a
//     concrete protocol at N = 4 (attempting 1/2-degradable agreement),
//     records every node's delivered transcript, verifies the proof's two
//     indistinguishability claims (B's view equal in (a) and (b); A's view
//     equal in (b) and (c)), and reports which scenario the protocol
//     violates — at least one must break, because the views force it.
//   - Lift raises the 4-node outcome to the 3m+δ-node system of the proof's
//     Part II by the group-simulation argument.
//
// Theorem 3 (connectivity ≥ m+u+1 is necessary) is reproduced by running
// the protocol over the Bridge cut-set topology with the proof's F2
// adversary: with a cut of m+u the forged value crosses the cut and the
// degraded condition D.3 is violated; with m+u+1 the transport layer
// degrades the crossing messages to V_d at worst and agreement holds.
package lowerbound

import (
	"fmt"

	"degradable/internal/adversary"
	"degradable/internal/eig"
	"degradable/internal/protocol/relay"
	"degradable/internal/runner"
	"degradable/internal/spec"
	"degradable/internal/types"
)

// Fig2Nodes names the four nodes of Figure 2.
const (
	NodeS types.NodeID = 0
	NodeA types.NodeID = 1
	NodeB types.NodeID = 2
	NodeC types.NodeID = 3
)

// ScenarioResult is the outcome of one Figure-2 scenario.
type ScenarioResult struct {
	// Name is "a", "b", or "c".
	Name string
	// SenderValue is the value a fault-free sender held (scenario b's
	// faulty sender has no meaningful value; the field records the proof's
	// nominal input).
	SenderValue types.Value
	// Faulty is the scenario's fault set.
	Faulty types.NodeSet
	// Decisions maps every node to its decision.
	Decisions map[types.NodeID]types.Value
	// Views is each node's full delivered transcript.
	Views map[types.NodeID][]types.Message
	// Verdict is the 1/2-degradable spec check of this scenario.
	Verdict spec.Verdict
}

// Fig2Report aggregates the three scenarios and the proof's claims.
type Fig2Report struct {
	A, B, C ScenarioResult
	// ViewBEqualAB reports whether node B's transcript is identical in
	// scenarios (a) and (b) — the proof's first indistinguishability.
	ViewBEqualAB bool
	// ViewAEqualBC reports whether node A's transcript is identical in
	// scenarios (b) and (c) — the proof's second indistinguishability.
	ViewAEqualBC bool
	// Violated lists the scenarios whose spec condition failed. Theorem 2
	// guarantees at least one entry for any protocol at N = 4.
	Violated []string
}

// byz12Rule is the degradable resolution rule for m = 1 (the protocol a
// 4-node system would use in its doomed attempt at 1/2-degradable
// agreement): VOTE(n_σ−1−1, n_σ−1).
var byz12Rule = eig.Vote(func(nSub int) int { return nSub - 1 - 1 })

// Fig2Scenarios runs the three scenarios with values alpha ≠ beta (both
// non-default) and returns the report.
func Fig2Scenarios(alpha, beta types.Value) (*Fig2Report, error) {
	if alpha == beta || alpha == types.Default || beta == types.Default {
		return nil, fmt.Errorf("lowerbound: need two distinct non-default values")
	}
	// Scenario (a): A faulty; sender fault-free with value beta; A pretends
	// it received alpha.
	a, err := runFig2("a", beta, map[types.NodeID]adversary.Strategy{
		NodeA: adversary.ClaimSender{Claim: alpha},
	})
	if err != nil {
		return nil, err
	}
	// Scenario (b): S faulty; sends alpha to A, beta to B and C.
	b, err := runFig2("b", beta, map[types.NodeID]adversary.Strategy{
		NodeS: adversary.PerRecipient{Values: map[types.NodeID]types.Value{
			NodeA: alpha, NodeB: beta, NodeC: beta,
		}},
	})
	if err != nil {
		return nil, err
	}
	// Scenario (c): B and C faulty; sender fault-free with value alpha;
	// B and C pretend they received beta.
	c, err := runFig2("c", alpha, map[types.NodeID]adversary.Strategy{
		NodeB: adversary.ClaimSender{Claim: beta},
		NodeC: adversary.ClaimSender{Claim: beta},
	})
	if err != nil {
		return nil, err
	}
	rep := &Fig2Report{
		A:            *a,
		B:            *b,
		C:            *c,
		ViewBEqualAB: ViewsEqual(a.Views[NodeB], b.Views[NodeB]),
		ViewAEqualBC: ViewsEqual(b.Views[NodeA], c.Views[NodeA]),
	}
	for _, r := range []*ScenarioResult{a, b, c} {
		if !r.Verdict.OK {
			rep.Violated = append(rep.Violated, r.Name)
		}
	}
	return rep, nil
}

func runFig2(name string, senderValue types.Value,
	strategies map[types.NodeID]adversary.Strategy) (*ScenarioResult, error) {
	in := runner.Instance{
		Protocol:    relay.Protocol{N: 4, Depth: 2, Sender: NodeS, M: 1, U: 2, Rule: byz12Rule},
		SenderValue: senderValue,
		Strategies:  strategies,
		RecordViews: true,
	}
	res, verdict, err := in.Run()
	if err != nil {
		return nil, err
	}
	return &ScenarioResult{
		Name:        name,
		SenderValue: senderValue,
		Faulty:      in.Faulty(),
		Decisions:   res.Decisions,
		Views:       res.Views,
		Verdict:     verdict,
	}, nil
}

// ViewsEqual reports whether two delivered transcripts are identical
// (same messages, same order, values and paths included).
func ViewsEqual(a, b []types.Message) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].From != b[i].From || a[i].To != b[i].To ||
			a[i].Round != b[i].Round || a[i].Value != b[i].Value ||
			a[i].Path.Key() != b[i].Path.Key() {
			return false
		}
	}
	return true
}

// Lift raises a 4-node scenario outcome to the 3m+δ-node system of the
// Theorem 2, Part II group simulation: groups S_m, A_m, B_m (m nodes each)
// and C_δ (δ nodes) inherit the decision and fault status of their 4-node
// counterparts. The returned execution can be spec-checked at the (m, u)
// level: N = 3m+δ ≤ 2m+u, and the violated condition lifts with it.
func Lift(r ScenarioResult, m, delta int) (spec.Execution, error) {
	if m < 1 || delta < 1 {
		return spec.Execution{}, fmt.Errorf("lowerbound: need m, delta >= 1")
	}
	n := 3*m + delta
	if n > types.MaxNodeSetID+1 {
		return spec.Execution{}, fmt.Errorf("lowerbound: lifted system too large (%d nodes)", n)
	}
	group := func(id types.NodeID) []types.NodeID {
		var lo, hi int
		switch id {
		case NodeS:
			lo, hi = 0, m
		case NodeA:
			lo, hi = m, 2*m
		case NodeB:
			lo, hi = 2*m, 3*m
		default: // NodeC
			lo, hi = 3*m, 3*m+delta
		}
		out := make([]types.NodeID, 0, hi-lo)
		for i := lo; i < hi; i++ {
			out = append(out, types.NodeID(i))
		}
		return out
	}
	exec := spec.Execution{
		M: m, U: m + delta, // δ ≤ u−m in the proof; the tightest lift uses u = m+δ
		Sender:      0,
		SenderValue: r.SenderValue,
		Decisions:   make(map[types.NodeID]types.Value),
	}
	for _, four := range []types.NodeID{NodeS, NodeA, NodeB, NodeC} {
		members := group(four)
		for _, id := range members {
			if r.Faulty.Contains(four) {
				exec.Faulty = exec.Faulty.Add(id)
			} else {
				exec.Decisions[id] = r.Decisions[four]
			}
		}
	}
	return exec, nil
}
