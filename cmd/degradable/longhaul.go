package main

import (
	"flag"
	"fmt"
	"io"

	"degradable/internal/core"
	"degradable/internal/stats"
	"degradable/internal/workload"
)

// longhaulFlags runs a long-horizon mission: a stream of m/u-degradable
// agreement instances under a stochastic per-node fault process (transient
// failures and repairs), reporting how the system rode through it.
func longhaulFlags(fs *flag.FlagSet) func(io.Writer) error {
	var (
		n      = fs.Int("n", 5, "nodes")
		m      = fs.Int("m", 1, "classic fault bound")
		u      = fs.Int("u", 2, "degraded fault bound")
		steps  = fs.Int("steps", 1000, "agreement instances to run")
		fail   = fs.Float64("fail", 0.05, "per-node P(healthy→faulty) per step")
		repair = fs.Float64("repair", 0.5, "per-node P(faulty→healthy) per step")
		seed   = fs.Int64("seed", 1, "mission seed")
	)
	return func(out io.Writer) error {
		rep, err := workload.Run(workload.Config{
			Params:  core.Params{N: *n, M: *m, U: *u},
			Steps:   *steps,
			Seed:    *seed,
			Process: workload.FaultProcess{FailRate: *fail, RepairRate: *repair},
		})
		if err != nil {
			return err
		}
		table := stats.NewTable(
			fmt.Sprintf("Mission: %d steps of %d/%d-degradable agreement over %d nodes (fail %.2f, repair %.2f)",
				rep.Steps, *m, *u, *n, *fail, *repair),
			"metric", "value")
		table.AddRow("steps in classic regime (f ≤ m)", rep.Classic)
		table.AddRow("steps in degraded regime (m < f ≤ u)", rep.Degraded)
		table.AddRow("steps beyond u (no guarantee)", rep.BeyondU)
		table.AddRow("condition violations within bounds", rep.Violations)
		table.AddRow("graceful-degradation failures", rep.GracefulFailures)
		table.AddRow("steps with full agreement", rep.FullAgreement)
		table.AddRow("degraded steps with an actual split", rep.SplitSteps)
		table.AddRow("longest degraded streak", rep.MaxConsecutiveDegraded)
		table.AddRow("peak simultaneous faults", rep.PeakFaulty)
		table.AddRow("total protocol messages", rep.Messages)
		fmt.Fprint(out, table.String())
		if rep.Violations == 0 && rep.GracefulFailures == 0 {
			fmt.Fprintln(out, "\nAll paper conditions held on every step within the fault bounds.")
		} else {
			fmt.Fprintln(out, "\nWARNING: conditions were violated — this should be impossible.")
		}
		return nil
	}
}
