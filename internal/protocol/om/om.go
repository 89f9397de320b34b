// Package om implements the Lamport–Shostak–Pease oral-messages algorithm
// OM(m) — the classic Byzantine agreement baseline the paper degrades from.
//
// OM(m) is the same depth-(m+1) EIG relay exchange as BYZ(m,m) but resolves
// every tree level with a simple strict majority (default on no majority).
// It achieves conditions D.1 and D.2 for f ≤ m when N > 3m, and promises
// nothing beyond m faults — which is precisely the gap degradable agreement
// fills (experiment E4 makes the contrast measurable).
package om

import (
	"fmt"

	"degradable/internal/eig"
	"degradable/internal/protocol/relay"
	"degradable/internal/round"
	"degradable/internal/types"
	"degradable/internal/vote"
)

// Params configures one OM(m) instance.
type Params struct {
	// N is the total number of nodes, sender included.
	N int
	// M is the fault threshold.
	M int
	// Sender is the distributing node's ID.
	Sender types.NodeID
}

// Validate checks N > 3m (the classic bound) and basic ranges.
func (p Params) Validate() error {
	if p.M < 0 {
		return fmt.Errorf("om: m must be non-negative, got %d", p.M)
	}
	if p.N <= 3*p.M {
		return fmt.Errorf("om: need N > 3m; N=%d, 3m=%d", p.N, 3*p.M)
	}
	if p.N < 2 {
		return fmt.Errorf("om: need at least 2 nodes, got %d", p.N)
	}
	if p.Sender < 0 || int(p.Sender) >= p.N {
		return fmt.Errorf("om: sender %d out of range [0,%d)", int(p.Sender), p.N)
	}
	return nil
}

// Depth returns the number of message rounds, m+1.
func (p Params) Depth() int { return p.M + 1 }

// Rule returns OM's per-level resolution: strict majority, default
// otherwise. Its threshold is a function of the vote vector's length,
// which is nSub−1 for a receiver but nSub for the sender, so it declares
// none and Resolve gathers every path.
func (p Params) Rule() eig.Rule {
	return eig.RuleFunc(func(_ int, vals []types.Value) types.Value {
		return vote.Majority(vals)
	})
}

// System implements runner.Protocol.
func (p Params) System() (n, depth int, sender types.NodeID) {
	return p.N, p.Depth(), p.Sender
}

// Thresholds implements runner.Protocol: OM(m) is m/m-degradable (it is
// exactly Byzantine agreement; there is no degraded regime).
func (p Params) Thresholds() (m, u int) { return p.M, p.M }

// Nodes returns the honest node complement with the sender holding value.
func (p Params) Nodes(value types.Value) ([]round.Node, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return relay.Protocol{N: p.N, Depth: p.Depth(), Sender: p.Sender, Rule: p.Rule()}.Nodes(value)
}
