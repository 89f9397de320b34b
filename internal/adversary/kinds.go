package adversary

import (
	"fmt"

	"degradable/internal/types"
)

// Kind names a built-in fault behaviour. The public facade's FaultKind is
// this type, so the conversion from a declarative fault description to a
// Strategy lives in exactly one place.
type Kind int

// Built-in fault behaviours (degradable.FaultSilent is KindSilent).
const (
	// KindSilent never sends.
	KindSilent Kind = iota + 1
	// KindCrash behaves honestly in round 1 then falls silent.
	KindCrash
	// KindLie sends a fixed forged value everywhere.
	KindLie
	// KindTwoFaced tells even-numbered recipients the honest value and
	// everyone else the forged value.
	KindTwoFaced
	// KindRandom sends pseudo-random values (deterministic per seed),
	// occasionally omitting messages.
	KindRandom
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindSilent:
		return "silent"
	case KindCrash:
		return "crash"
	case KindLie:
		return "lie"
	case KindTwoFaced:
		return "twofaced"
	case KindRandom:
		return "random"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// FaultSpec arms one node with a built-in Byzantine behaviour: the one fault
// record of the repo. The facade's Fault, a served request's faults, a chaos
// scenario's faults and a cluster node's role are all this type, and its
// JSON form is the one chaos reports and -replay strings carry.
type FaultSpec struct {
	// Node is the faulty node (the sender may be faulty).
	Node types.NodeID `json:"node"`
	// Kind selects the behaviour.
	Kind Kind `json:"kind"`
	// Value parameterizes KindLie, KindTwoFaced and KindRandom.
	Value types.Value `json:"value,omitempty"`
	// Seed parameterizes KindRandom.
	Seed int64 `json:"seed,omitempty"`
}

// Strategy returns the fault's behaviour in an n-node system.
func (f FaultSpec) Strategy(n int) (Strategy, error) { return f.Kind.Build(n, f.Value, f.Seed) }

// CheckFaults checks a fault list against an n-node system — every node in
// [0,n) and within a NodeSet, none armed twice (overwriting an earlier fault
// would run a weaker adversary than asked for), every kind a known one — and
// returns the faulty set.
func CheckFaults(n int, faults []FaultSpec) (types.NodeSet, error) {
	var faulty types.NodeSet
	for _, f := range faults {
		switch {
		case f.Node < 0 || int(f.Node) >= n:
			return 0, fmt.Errorf("adversary: faulty node %d out of range [0,%d)", int(f.Node), n)
		case f.Node > types.MaxNodeSetID:
			return 0, fmt.Errorf("adversary: faulty node %d beyond the node-set limit %d", int(f.Node), types.MaxNodeSetID)
		case faulty.Contains(f.Node):
			return 0, fmt.Errorf("adversary: node %d armed twice", int(f.Node))
		case f.Kind < KindSilent || f.Kind > KindRandom:
			return 0, fmt.Errorf("adversary: unknown fault kind %d", int(f.Kind))
		}
		faulty = faulty.Add(f.Node)
	}
	return faulty, nil
}

// Strategies checks faults with CheckFaults and returns each faulty node's
// strategy.
func Strategies(n int, faults []FaultSpec) (map[types.NodeID]Strategy, error) {
	if _, err := CheckFaults(n, faults); err != nil {
		return nil, err
	}
	strategies := make(map[types.NodeID]Strategy, len(faults))
	for _, f := range faults {
		s, err := f.Strategy(n)
		if err != nil {
			return nil, err
		}
		strategies[f.Node] = s
	}
	return strategies, nil
}

// Build returns the strategy for an N-node system. value parameterizes
// KindLie and KindTwoFaced; seed parameterizes KindRandom.
func (k Kind) Build(n int, value types.Value, seed int64) (Strategy, error) {
	switch k {
	case KindSilent:
		return Silent{}, nil
	case KindCrash:
		return Crash{After: 1}, nil
	case KindLie:
		return Lie{Value: value}, nil
	case KindTwoFaced:
		return OddLie{N: n, Value: value}, nil
	case KindRandom:
		return NewRandomLie(seed, []types.Value{value}), nil
	default:
		return nil, fmt.Errorf("adversary: unknown fault kind %d", int(k))
	}
}
