// Package degradable implements m/u-degradable agreement in the presence of
// Byzantine faults (Vaidya, 1993), together with the substrates the paper
// builds on: Lamport's OM oral-messages algorithm and Dolev's Crusader
// agreement as baselines, a synchronous message-passing simulator with fully
// Byzantine nodes, disjoint-path transport over incompletely connected
// networks (Theorem 3), the Figure-1 multi-channel application, and the §6
// degradable clock synchronization formulation.
//
// # The guarantee
//
// An m/u-degradable agreement instance (0 ≤ m ≤ u, N ≥ 2m+u+1 nodes) lets a
// sender distribute a value to receivers so that, with f faulty nodes:
//
//   - f ≤ m: classic Byzantine agreement. All fault-free receivers decide
//     the sender's value (fault-free sender) or one identical value (faulty
//     sender).
//   - m < f ≤ u: degraded agreement. Fault-free receivers split into at
//     most two classes; one class holds the distinguished default value
//     V_d, the other holds the sender's value (fault-free sender) or some
//     identical value. In particular at least m+1 fault-free nodes always
//     agree on one value — graceful degradation.
//
// # Quick start
//
//	cfg := degradable.Config{N: 5, M: 1, U: 2}
//	res, err := degradable.Agree(cfg, 42,
//		degradable.Fault{Node: 3, Kind: degradable.FaultLie, Value: 99})
//	// res.Decisions holds every node's decision; res.OK reports whether
//	// the applicable paper condition (D.1–D.4) held.
//
// The examples/ directory contains runnable programs, `degradable
// experiments` (cmd/degradable) regenerates every table and figure of the
// paper, and DESIGN.md maps each paper artifact to the module that
// reproduces it.
package degradable

import (
	"degradable/internal/adversary"
	"degradable/internal/core"
	"degradable/internal/protocol/crusader"
	"degradable/internal/protocol/om"
	"degradable/internal/protocol/sm"
	"degradable/internal/runner"
	"degradable/internal/types"
)

// Core vocabulary, re-exported from the internal packages so that public
// signatures and internal machinery share one set of types.
type (
	// Value is an agreement value; Default is the paper's V_d.
	Value = types.Value
	// NodeID identifies a node; the sender defaults to node 0.
	NodeID = types.NodeID
	// NodeSet is a compact set of node IDs.
	NodeSet = types.NodeSet
	// Strategy is the full Byzantine behaviour interface — the escape
	// hatch for callers who need adversaries beyond the Fault kinds.
	Strategy = adversary.Strategy
	// Message is one protocol message, observable via AgreeObserved.
	Message = types.Message
)

// Default is the distinguished default value V_d, distinguishable from all
// application values.
const Default = types.Default

// Sentinel errors from parameter validation, matchable with errors.Is.
var (
	// ErrInfeasible marks parameter pairs outside 0 ≤ m ≤ u, u ≥ 1.
	ErrInfeasible = core.ErrInfeasible
	// ErrTooFewNodes marks N ≤ 2m+u (Theorem 2).
	ErrTooFewNodes = core.ErrTooFewNodes
)

// Config parameterizes an m/u-degradable agreement instance.
type Config struct {
	// N is the number of nodes, sender included. Must exceed 2M+U.
	N int
	// M is the classic-agreement fault bound.
	M int
	// U is the degraded-agreement fault bound (M ≤ U).
	U int
	// Sender is the distributing node (default 0).
	Sender NodeID
}

// MinNodes returns the minimum system size for m/u-degradable agreement:
// 2m+u+1 (Theorem 2).
func MinNodes(m, u int) (int, error) { return core.MinNodes(m, u) }

// MinConnectivity returns the minimum network vertex connectivity for
// m/u-degradable agreement: m+u+1 (Theorem 3).
func MinConnectivity(m, u int) (int, error) { return core.MinConnectivity(m, u) }

// Fault vocabulary: the repo's one fault record and its kinds, so a Fault
// is a served request's FaultSpec and a chaos scenario's ChaosFault as it
// stands.
type (
	// FaultKind selects a built-in Byzantine behaviour for a faulty node.
	FaultKind = adversary.Kind
	// Fault arms one node with a built-in Byzantine behaviour: Node (the
	// sender may be faulty), Kind, Value (for FaultLie, FaultTwoFaced and
	// FaultRandom) and Seed (for FaultRandom). Its Strategy(n) method is
	// the conversion Agree applies, for callers that compose AgreeObserved
	// or AgreeCustom themselves.
	Fault = adversary.FaultSpec
)

// Built-in fault behaviours.
const (
	// FaultSilent never sends.
	FaultSilent = adversary.KindSilent
	// FaultCrash behaves honestly in round 1 then falls silent.
	FaultCrash = adversary.KindCrash
	// FaultLie sends Fault.Value everywhere.
	FaultLie = adversary.KindLie
	// FaultTwoFaced tells even-numbered recipients the honest value and
	// everyone else Fault.Value.
	FaultTwoFaced = adversary.KindTwoFaced
	// FaultRandom sends pseudo-random values (deterministic per
	// Fault.Seed), occasionally omitting messages.
	FaultRandom = adversary.KindRandom
)

// Result reports one agreement run.
type Result struct {
	// Decisions maps every node to its decided value. Faulty nodes report
	// Default; the fault-free sender reports its own value.
	Decisions map[NodeID]Value
	// Condition is the paper condition that applied ("D.1".."D.4", or
	// "none" beyond u faults).
	Condition string
	// OK reports whether the condition held. It is always true for the
	// protocol in this package within its fault bounds; it exists so
	// callers can assert it.
	OK bool
	// Reason explains a violation (empty when OK).
	Reason string
	// Graceful reports whether at least m+1 fault-free nodes agreed on one
	// value (meaningful for f ≤ u).
	Graceful bool
	// Classes is the decision histogram over fault-free receivers.
	Classes map[Value]int
	// Messages is the total number of protocol messages sent.
	Messages int
	// Rounds is the number of message rounds (m+1).
	Rounds int
}

// Agree runs one m/u-degradable agreement instance with the given faults
// armed and returns every node's decision together with the spec verdict.
func Agree(cfg Config, senderValue Value, faults ...Fault) (*Result, error) {
	strategies, err := adversary.Strategies(cfg.N, faults)
	if err != nil {
		return nil, err
	}
	return AgreeCustom(cfg, senderValue, strategies)
}

// AgreeCustom is Agree with fully custom Byzantine strategies.
func AgreeCustom(cfg Config, senderValue Value, strategies map[NodeID]Strategy) (*Result, error) {
	return AgreeObserved(cfg, senderValue, strategies, nil)
}

// AgreeObserved is AgreeCustom with a message observer: trace receives every
// delivered protocol message, in deterministic order, as the run proceeds.
func AgreeObserved(cfg Config, senderValue Value, strategies map[NodeID]Strategy,
	trace func(Message)) (*Result, error) {
	p := core.Params{N: cfg.N, M: cfg.M, U: cfg.U, Sender: cfg.Sender}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return run(p, senderValue, strategies, trace)
}

// AgreeOM runs the Lamport–Shostak–Pease OM(m) baseline (N > 3m) under the
// same fault interface; the verdict checks the m/m (classic) conditions.
func AgreeOM(n, m int, senderValue Value, faults ...Fault) (*Result, error) {
	return agree(om.Params{N: n, M: m}, senderValue, faults)
}

// AgreeCrusader runs Dolev's Crusader agreement baseline (N > 3f) under the
// same fault interface; the verdict checks the 0/f (degraded) conditions,
// which correspond to Crusader's correct-or-detect guarantee.
func AgreeCrusader(n, f int, senderValue Value, faults ...Fault) (*Result, error) {
	return agree(crusader.Params{N: n, F: f}, senderValue, faults)
}

// AgreeSM runs Lamport's authenticated SM(m) algorithm (N ≥ m+2) under the
// same fault interface; a faulty node applies its fault before it signs, so
// it signs its own lies but can never forge other signatures. The verdict
// checks the m/m (classic) conditions: with f ≤ m faults all fault-free
// receivers decide one identical value (D.2), the sender's own value when
// the sender is fault-free (D.1). Condition is "D.1" or "D.2", and "none"
// past m faults, where SM promises nothing.
func AgreeSM(n, m int, senderValue Value, faults ...Fault) (*Result, error) {
	return agree(sm.Params{N: n, M: m}, senderValue, faults)
}

// agree arms faults on p's nodes and runs p, once it validates, under them.
func agree(p interface {
	runner.Protocol
	Validate() error
}, senderValue Value, faults []Fault) (*Result, error) {
	n, _, _ := p.System()
	strategies, err := adversary.Strategies(n, faults)
	if err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return run(p, senderValue, strategies, nil)
}

func run(p runner.Protocol, senderValue Value, strategies map[NodeID]Strategy,
	trace func(Message)) (*Result, error) {
	in := runner.Instance{Protocol: p, SenderValue: senderValue, Strategies: strategies, Trace: trace}
	res, verdict, err := in.Run()
	if err != nil {
		return nil, err
	}
	return &Result{
		Decisions: res.Decisions,
		Condition: verdict.Condition,
		OK:        verdict.OK,
		Reason:    verdict.Reason,
		Graceful:  verdict.Graceful,
		Classes:   verdict.Classes,
		Messages:  res.Messages,
		Rounds:    len(res.PerRound),
	}, nil
}
