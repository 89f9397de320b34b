// Package crusader implements Dolev's Crusader agreement, the second
// baseline referenced by the paper (its Theorem 3 proof follows Dolev's
// connectivity argument).
//
// Crusader agreement with fault bound f guarantees, for N > 3f:
//
//   - if the sender is fault-free, every fault-free receiver decides the
//     sender's value;
//   - if the sender is faulty, every fault-free receiver either decides one
//     common value or detects the sender as faulty (decides V_d here).
//
// It is realized as the one-echo relay protocol resolved with
// VOTE(n−1−f, n−1) — structurally identical to the paper's BYZ(1, m) with
// m = f, which makes the family relationship between Crusader agreement and
// degradable agreement concrete: Crusader is the depth-2 member with the
// degraded guarantee promoted to all of 1..f.
package crusader

import (
	"fmt"

	"degradable/internal/eig"
	"degradable/internal/protocol/relay"
	"degradable/internal/round"
	"degradable/internal/types"
)

// Params configures one Crusader agreement instance.
type Params struct {
	// N is the total number of nodes, sender included.
	N int
	// F is the fault bound.
	F int
	// Sender is the distributing node's ID.
	Sender types.NodeID
}

// Validate checks N > 3f and basic ranges.
func (p Params) Validate() error {
	if p.F < 1 {
		return fmt.Errorf("crusader: f must be at least 1, got %d", p.F)
	}
	if p.N <= 3*p.F {
		return fmt.Errorf("crusader: need N > 3f; N=%d, 3f=%d", p.N, 3*p.F)
	}
	if p.Sender < 0 || int(p.Sender) >= p.N {
		return fmt.Errorf("crusader: sender %d out of range [0,%d)", int(p.Sender), p.N)
	}
	return nil
}

// Depth returns the number of message rounds: always 2 (send + echo).
func (p Params) Depth() int { return 2 }

// Rule returns the resolution rule VOTE(n−1−f, n−1).
func (p Params) Rule() eig.Rule {
	f := p.F
	return eig.Vote(func(nSub int) int { return nSub - 1 - f })
}

// System implements runner.Protocol.
func (p Params) System() (n, depth int, sender types.NodeID) {
	return p.N, p.Depth(), p.Sender
}

// Thresholds implements runner.Protocol. Crusader's guarantee corresponds to
// the degraded regime over all of 1..f: receivers decide the common value or
// V_d. There is no fault count under which full agreement with a faulty
// sender is promised, so m = 0.
func (p Params) Thresholds() (m, u int) { return 0, p.F }

// Nodes returns the honest node complement with the sender holding value.
func (p Params) Nodes(value types.Value) ([]round.Node, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return relay.Protocol{N: p.N, Depth: p.Depth(), Sender: p.Sender, Rule: p.Rule()}.Nodes(value)
}
