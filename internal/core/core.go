// Package core implements the paper's primary contribution: the
// m/u-degradable agreement algorithm BYZ(m, m) of Section 4.
//
// The algorithm is the recursive oral-messages exchange realized as a
// depth-(m+1) EIG relay protocol, resolved bottom-up with
//
//	VOTE(n_σ − 1 − m, n_σ − 1)
//
// at every internal tree node σ, where n_σ = N − |σ| + 1 is the number of
// participants of the sub-protocol BYZ(t−1, m) in which σ's last node acted
// as sender, and VOTE is the unique-threshold vote of §4 (ties and
// insufficient support yield the default value V_d).
//
// The paper omits the m = 0 algorithm; this package supplies the natural
// one — a single echo round resolved with VOTE(n−1, n−1), i.e. unanimity —
// which is exactly BYZ(1, m) instantiated at m = 0 and satisfies D.1–D.4
// (see the package tests, which check it exhaustively).
//
// Requirements (Theorem 1 / Theorem 2): 0 ≤ m ≤ u and N > 2m + u.
package core

import (
	"errors"
	"fmt"

	"degradable/internal/eig"
	"degradable/internal/protocol/relay"
	"degradable/internal/round"
	"degradable/internal/types"
)

// Sentinel errors, matchable with errors.Is, wrapped with instance detail.
var (
	// ErrInfeasible marks parameter pairs outside 0 ≤ m ≤ u, u ≥ 1.
	ErrInfeasible = errors.New("infeasible (m, u) parameters")
	// ErrTooFewNodes marks N ≤ 2m+u (Theorem 2).
	ErrTooFewNodes = errors.New("too few nodes (Theorem 2 requires N > 2m+u)")
)

// Params configures one m/u-degradable agreement instance.
type Params struct {
	// N is the total number of nodes, sender included.
	N int
	// M is the full-agreement fault threshold: up to M faults, classic
	// Byzantine agreement (D.1, D.2) is achieved.
	M int
	// U is the degraded threshold: for M < f ≤ U faults, degraded agreement
	// (D.3, D.4) is achieved.
	U int
	// Sender is the distributing node's ID (default 0).
	Sender types.NodeID
}

// Validate checks the feasibility constraints of Theorems 1 and 2:
// 0 ≤ m ≤ u, u ≥ 1, and N ≥ 2m+u+1.
func (p Params) Validate() error {
	if p.M < 0 {
		return fmt.Errorf("core: m must be non-negative, got %d: %w", p.M, ErrInfeasible)
	}
	if p.U < p.M {
		return fmt.Errorf("core: u (%d) must be at least m (%d): %w", p.U, p.M, ErrInfeasible)
	}
	if p.U < 1 {
		return fmt.Errorf("core: u must be at least 1, got %d: %w", p.U, ErrInfeasible)
	}
	if p.N <= 2*p.M+p.U {
		return fmt.Errorf("core: N=%d with 2m+u=%d: %w", p.N, 2*p.M+p.U, ErrTooFewNodes)
	}
	if p.Sender < 0 || int(p.Sender) >= p.N {
		return fmt.Errorf("core: sender %d out of range [0,%d)", int(p.Sender), p.N)
	}
	if p.N-1 < p.Depth() {
		return fmt.Errorf("core: N=%d too small for %d relay rounds", p.N, p.Depth())
	}
	return nil
}

// MinNodes returns the minimum number of nodes for m/u-degradable agreement:
// 2m + u + 1 (Theorem 2, necessity; §4, sufficiency). It returns an error
// for infeasible parameter pairs (m > u, u < 1, or negative m).
func MinNodes(m, u int) (int, error) {
	if m < 0 || u < 1 || m > u {
		return 0, fmt.Errorf("core: m=%d u=%d: %w", m, u, ErrInfeasible)
	}
	return 2*m + u + 1, nil
}

// MinConnectivity returns the minimum network vertex connectivity for
// m/u-degradable agreement: m + u + 1 (Theorem 3).
func MinConnectivity(m, u int) (int, error) {
	if m < 0 || u < 1 || m > u {
		return 0, fmt.Errorf("core: m=%d u=%d: %w", m, u, ErrInfeasible)
	}
	return m + u + 1, nil
}

// Depth returns the number of message rounds: m+1 for m ≥ 1, and 2 (one echo
// round) for the m = 0 protocol. The degenerate two-node system (m = 0,
// u = 1, N = 2) has no one to echo to and uses the direct one-round
// protocol, which satisfies D.1–D.4 trivially with a single receiver.
func (p Params) Depth() int {
	if p.M < 1 {
		if p.N <= 2 {
			return 1
		}
		return 2
	}
	return p.M + 1
}

// System implements runner.Protocol.
func (p Params) System() (n, depth int, sender types.NodeID) {
	return p.N, p.Depth(), p.Sender
}

// Thresholds implements runner.Protocol.
func (p Params) Thresholds() (m, u int) { return p.M, p.U }

// Complexity is the exact cost of one fault-free run: message rounds,
// messages sent, and wire bytes as round.MessageBytes counts them.
type Complexity struct {
	Rounds, Messages, Bytes int
}

// Cost returns the cost of a fault-free BYZ(m,m) run of p's shape, which
// every fault that omits nothing (a lie, an equivocation) leaves unchanged.
// Round r sends each of the N−1 receivers one message per length-r relay
// path ending elsewhere, (N−1)·P(N−1, r−1) messages in all, each 8 bytes
// of value plus 4 per path element.
func Cost(p Params) Complexity {
	c := Complexity{Rounds: p.Depth()}
	paths := 1 // P(N−1, r−1)
	for r := 1; r <= c.Rounds; r++ {
		msgs := (p.N - 1) * paths
		c.Messages += msgs
		c.Bytes += msgs * (8 + 4*r)
		paths *= p.N - r
	}
	return c
}

// Rule returns the per-level EIG resolution rule VOTE(n_σ−1−m, n_σ−1). It
// declares its threshold, which exceeds half the vote vector at the last
// inner level (N−2m of N−m, and N > 3m), so most of that level is decided
// by count.
func (p Params) Rule() eig.Rule {
	m := p.M
	return eig.Vote(func(nSub int) int { return nSub - 1 - m })
}

// NewNode returns the honest node with the given identity. The sender's
// node distributes value; receivers ignore it.
func (p Params) NewNode(id types.NodeID, value types.Value) (*relay.Node, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	nd, err := relay.New(p.N, p.Depth(), p.Sender, id, value, p.Rule())
	if err != nil {
		return nil, err
	}
	// VOTE is unanimity-respecting (its threshold n_σ−1−m never exceeds the
	// vote-vector length n_σ−1), so the tree's O(1) unanimity shortcut is
	// sound for the degradable rule.
	nd.EnableFastResolve()
	return nd, nil
}

// Nodes returns the full complement of honest nodes for the instance, with
// the sender holding value. Callers substitute Byzantine implementations for
// the fault set before running.
func (p Params) Nodes(value types.Value) ([]round.Node, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	nodes := make([]round.Node, p.N)
	for i := 0; i < p.N; i++ {
		nd, err := p.NewNode(types.NodeID(i), value)
		if err != nil {
			return nil, err
		}
		nodes[i] = nd
	}
	return nodes, nil
}
