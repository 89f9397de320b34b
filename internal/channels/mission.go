package channels

import (
	"fmt"

	"degradable/internal/adversary"
	"degradable/internal/rng"
	"degradable/internal/types"
)

// Mission drives a multi-channel system through a sequence of sensor steps
// under a fault plan.
type Mission struct {
	// Steps is the number of sensor inputs to process.
	Steps int
	// Seed drives the deterministic sensor-value sequence.
	Seed int64
	// MaxRedo is the backward-recovery retry budget per step.
	MaxRedo int
	// FaultPlan returns the armed fault set for a step (nil = fault-free).
	// Faults may come and go between steps (transient faults).
	FaultPlan func(step int) map[types.NodeID]adversary.Strategy
}

// MissionResult aggregates a mission's outcomes.
type MissionResult struct {
	// Correct, Default, and Unsafe count entity outputs by class.
	Correct, Default, Unsafe int
	// Redos is the total number of backward-recovery re-distributions.
	Redos int
	// MaxStateClasses is the worst per-step count of distinct fault-free
	// channel states (condition C.3 requires ≤ 2).
	MaxStateClasses int
	// C2Violations counts unsafe outputs on steps where the sender was
	// fault-free and the fault count was ≤ u — the situations where
	// condition C.2 promises correct-or-default. A degradable system must
	// report zero.
	C2Violations int
}

// RunMission executes the mission and returns aggregates.
func RunMission(cfg Config, m Mission) (*MissionResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if m.Steps < 1 {
		return nil, fmt.Errorf("channels: mission needs at least one step")
	}
	rng := rng.New(m.Seed)
	res := &MissionResult{}
	for step := 0; step < m.Steps; step++ {
		input := types.Value(rng.Intn(1000) + 1)
		var strategies map[types.NodeID]adversary.Strategy
		if m.FaultPlan != nil {
			strategies = m.FaultPlan(step)
		}
		sr, err := Step(cfg, input, strategies, m.MaxRedo)
		if err != nil {
			return nil, err
		}
		switch sr.Outcome {
		case OutcomeCorrect:
			res.Correct++
		case OutcomeDefault:
			res.Default++
		case OutcomeUnsafe:
			res.Unsafe++
		}
		res.Redos += sr.Redos
		if sr.StateClasses > res.MaxStateClasses {
			res.MaxStateClasses = sr.StateClasses
		}
		senderFaulty := strategies[types.NodeID(0)] != nil
		if sr.Outcome == OutcomeUnsafe && !senderFaulty && len(strategies) <= cfg.U {
			res.C2Violations++
		}
	}
	return res, nil
}
