// Package workload drives long-horizon missions: a stream of agreement
// instances under a stochastic fault process (Markov on/off per node,
// modelling transient faults and repairs), producing the aggregate
// statistics a reliability engineer would ask of a deployed system — how
// often the system ran degraded, how deep the degradation went, and whether
// the paper's conditions ever failed inside their fault bounds.
package workload

import (
	"fmt"

	"degradable/internal/adversary"
	"degradable/internal/core"
	"degradable/internal/rng"
	"degradable/internal/runner"
	"degradable/internal/spec"
	"degradable/internal/types"
)

// FaultProcess is a per-node two-state Markov chain evolved once per step.
type FaultProcess struct {
	// FailRate is P(healthy → faulty) per step.
	FailRate float64
	// RepairRate is P(faulty → healthy) per step (transient faults).
	RepairRate float64
}

// Validate checks the rates.
func (fp FaultProcess) Validate() error {
	if fp.FailRate < 0 || fp.FailRate > 1 || fp.RepairRate < 0 || fp.RepairRate > 1 {
		return fmt.Errorf("workload: rates must be in [0,1], got %+v", fp)
	}
	return nil
}

// Config describes a mission.
type Config struct {
	// Params is the agreement instance shape used at every step.
	Params core.Params
	// Steps is the number of agreement instances to run.
	Steps int
	// Seed drives the fault process, sender values, and strategy choice.
	Seed int64
	// Process is the fault dynamics.
	Process FaultProcess
}

// Report aggregates a mission.
type Report struct {
	// Steps echoes the mission length.
	Steps int
	// Classic, Degraded, and BeyondU count steps by fault regime.
	Classic, Degraded, BeyondU int
	// Violations counts steps (within f ≤ u) whose condition failed; the
	// paper guarantees zero.
	Violations int
	// GracefulFailures counts steps (within f ≤ u) where fewer than m+1
	// fault-free nodes shared a value; also guaranteed zero.
	GracefulFailures int
	// FullAgreement counts steps where every fault-free receiver decided
	// the same non-default value.
	FullAgreement int
	// SplitSteps counts degraded-regime steps where at least one fault-free
	// receiver landed on V_d (actual degradation, not just permission).
	SplitSteps int
	// MaxConsecutiveDegraded is the longest run of degraded-regime steps.
	MaxConsecutiveDegraded int
	// Messages is the total protocol traffic.
	Messages int
	// PeakFaulty is the largest simultaneous fault count observed.
	PeakFaulty int
}

// Run executes the mission.
func Run(cfg Config) (*Report, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Process.Validate(); err != nil {
		return nil, err
	}
	if cfg.Steps < 1 {
		return nil, fmt.Errorf("workload: need at least one step")
	}
	rng := rng.New(cfg.Seed)
	p := cfg.Params
	faulty := make([]bool, p.N)
	rep := &Report{Steps: cfg.Steps}
	consecutive := 0

	for step := 0; step < cfg.Steps; step++ {
		// Evolve the fault process.
		for i := range faulty {
			if faulty[i] {
				if rng.Float64() < cfg.Process.RepairRate {
					faulty[i] = false
				}
			} else if rng.Float64() < cfg.Process.FailRate {
				faulty[i] = true
			}
		}
		var faultyIDs []types.NodeID
		for i, bad := range faulty {
			if bad {
				faultyIDs = append(faultyIDs, types.NodeID(i))
			}
		}
		if len(faultyIDs) > rep.PeakFaulty {
			rep.PeakFaulty = len(faultyIDs)
		}

		// Arm a random battery scenario.
		honest := make([]types.NodeID, 0, p.N)
		fset := types.NewNodeSet(faultyIDs...)
		for i := 0; i < p.N; i++ {
			if !fset.Contains(types.NodeID(i)) {
				honest = append(honest, types.NodeID(i))
			}
		}
		value := types.Value(rng.Intn(1000) + 1)
		battery := adversary.Battery()
		sc := battery[rng.Intn(len(battery))]
		strategies := sc.Build(faultyIDs, rng.Int63(), adversary.Context{
			N: p.N, Sender: p.Sender, SenderValue: value, Alt: value + 100000, Honest: honest,
		})

		in := runner.Instance{Protocol: p, SenderValue: value, Strategies: strategies}
		res, verdict, err := in.Run()
		if err != nil {
			return nil, err
		}
		rep.Messages += res.Messages

		switch verdict.Regime {
		case spec.RegimeClassic:
			rep.Classic++
			consecutive = 0
		case spec.RegimeDegraded:
			rep.Degraded++
			consecutive++
			if consecutive > rep.MaxConsecutiveDegraded {
				rep.MaxConsecutiveDegraded = consecutive
			}
		default:
			rep.BeyondU++
			consecutive = 0
		}
		if verdict.Regime != spec.RegimeBeyond {
			if !verdict.OK {
				rep.Violations++
			}
			if !verdict.Graceful {
				rep.GracefulFailures++
			}
			if verdict.Classes[types.Default] > 0 && verdict.Regime == spec.RegimeDegraded {
				rep.SplitSteps++
			}
			if len(verdict.Classes) == 1 && verdict.Classes[types.Default] == 0 {
				rep.FullAgreement++
			}
		}
	}
	return rep, nil
}
