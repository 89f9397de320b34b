// Package ablation justifies the design choices of the paper's algorithm by
// breaking them one at a time and exhibiting the resulting condition
// violations (or proving the choice unreachable):
//
//   - RuleMajority replaces VOTE(n_σ−1−m, n_σ−1) with OM's simple majority.
//     At degradable sizing this accepts values with too little support: a
//     scripted faulty-sender adversary splits the fault-free receivers onto
//     two different non-default values, violating D.4 (the real rule sends
//     the starved side to V_d instead).
//   - RuleFixedThreshold uses the top-level threshold N−1−m at every
//     recursion level instead of n_σ−1−m. Inner levels then demand more
//     confirmations than fault-free nodes can supply, collapsing honest
//     subtrees to V_d and violating D.1 within the classic regime.
//   - The tie rule of VOTE (two winners → V_d) turns out to be *unreachable*
//     inside BYZ(m,m): every level's threshold strictly exceeds half of the
//     vote size, so at most one value can ever reach it. TieUnreachable
//     verifies the arithmetic for every feasible configuration; the tie rule
//     matters only for external uses of VOTE such as the (m+u)-of-(2m+u)
//     entity vote, where k ≤ n/2 is possible.
package ablation

import (
	"fmt"

	"degradable/internal/adversary"
	"degradable/internal/core"
	"degradable/internal/eig"
	"degradable/internal/protocol/relay"
	"degradable/internal/runner"
	"degradable/internal/spec"
	"degradable/internal/types"
	"degradable/internal/vote"
)

// Rule identifies an ablated resolution rule.
type Rule int

// The ablations.
const (
	// RulePaper is the unmodified VOTE(n_σ−1−m, n_σ−1) — the control.
	RulePaper Rule = iota + 1
	// RuleMajority resolves every level with a simple strict majority.
	RuleMajority
	// RuleFixedThreshold applies the top-level threshold at every level.
	RuleFixedThreshold
)

// String implements fmt.Stringer.
func (r Rule) String() string {
	switch r {
	case RulePaper:
		return "paper"
	case RuleMajority:
		return "majority"
	case RuleFixedThreshold:
		return "fixed-threshold"
	default:
		return fmt.Sprintf("Rule(%d)", int(r))
	}
}

// eigRule builds the EIG resolution rule for an ablation of instance p.
func eigRule(p core.Params, r Rule) (eig.Rule, error) {
	switch r {
	case RulePaper:
		return p.Rule(), nil
	case RuleMajority:
		return eig.RuleFunc(func(_ int, vals []types.Value) types.Value {
			return vote.Majority(vals)
		}), nil
	case RuleFixedThreshold:
		th := p.N - 1 - p.M
		return eig.Vote(func(int) int { return th }), nil
	default:
		return nil, fmt.Errorf("ablation: unknown rule %d", int(r))
	}
}

// Run executes instance p with the ablated rule, the given sender value,
// and the armed fault set, returning the spec verdict.
func Run(p core.Params, r Rule, senderValue types.Value,
	strategies map[types.NodeID]adversary.Strategy) (spec.Verdict, map[types.NodeID]types.Value, error) {
	if err := p.Validate(); err != nil {
		return spec.Verdict{}, nil, err
	}
	rule, err := eigRule(p, r)
	if err != nil {
		return spec.Verdict{}, nil, err
	}
	in := runner.Instance{
		Protocol:    relay.Protocol{N: p.N, Depth: p.Depth(), Sender: p.Sender, M: p.M, U: p.U, Rule: rule},
		SenderValue: senderValue,
		Strategies:  strategies,
	}
	res, verdict, err := in.Run()
	if err != nil {
		return spec.Verdict{}, nil, err
	}
	return verdict, res.Decisions, nil
}

// MajorityBreakScenario returns the scripted adversary that breaks the
// majority ablation at N=6, m=1, u=3: a faulty sender sends β to receiver 1
// and γ to receivers 2 and 3, while two faulty receivers confirm β to
// receiver 1 and γ to everyone else. Majority then hands receiver 1 the
// value β on 3-of-5 support while receivers 2 and 3 decide γ — two distinct
// non-default decisions, violating D.4. The paper's VOTE(4, 5) instead
// starves receiver 1 to V_d, which D.4 permits.
func MajorityBreakScenario(beta, gamma types.Value) (core.Params, map[types.NodeID]adversary.Strategy) {
	p := core.Params{N: 6, M: 1, U: 3}
	sender := adversary.PerRecipient{Values: map[types.NodeID]types.Value{
		1: beta, 2: gamma, 3: gamma, 4: gamma, 5: gamma,
	}}
	confirm := adversary.PerRecipient{Values: map[types.NodeID]types.Value{
		1: beta, 2: gamma, 3: gamma,
	}}
	return p, map[types.NodeID]adversary.Strategy{
		0: sender,
		4: confirm,
		5: confirm,
	}
}

// FixedThresholdBreakScenario returns the fault set that breaks the
// fixed-threshold ablation at N=7, m=2, u=2: two silent receivers leave
// inner levels one confirmation short of the (wrongly large) threshold, so
// honest subtrees collapse to V_d and every receiver decides V_d — a D.1
// violation within the classic regime (f = m). The paper's per-level
// threshold n_σ−1−m absorbs the same faults.
func FixedThresholdBreakScenario() (core.Params, map[types.NodeID]adversary.Strategy) {
	p := core.Params{N: 7, M: 2, U: 2}
	return p, map[types.NodeID]adversary.Strategy{
		5: adversary.Silent{},
		6: adversary.Silent{},
	}
}

// TieUnreachable verifies, for instance p, that every recursion level's
// VOTE threshold strictly exceeds half of its vote size — hence two values
// can never both reach the threshold and the tie rule never fires inside
// BYZ(m,m).
func TieUnreachable(p core.Params) (bool, error) {
	if err := p.Validate(); err != nil {
		return false, err
	}
	// Votes happen at internal tree levels only (1..depth−1); the deepest
	// level holds leaves.
	for level := 1; level < p.Depth(); level++ {
		nSub := p.N - (level - 1)
		votes := nSub - 1
		threshold := votes - p.M
		if 2*threshold <= votes {
			return false, nil
		}
	}
	return true, nil
}
