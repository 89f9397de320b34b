// Package harness defines one runnable experiment per table and figure of
// the paper (the E1–E8 index in DESIGN.md). Every experiment produces a
// rendered table — the artifact the paper reports — plus machine-checkable
// assertions on the qualitative shape the paper claims. `degradable
// experiments -markdown` (cmd/degradable) regenerates EXPERIMENTS.md from
// this package, and the repository-level benchmarks time each experiment.
package harness

import (
	"fmt"
	"strings"

	"degradable/internal/adversary"
	"degradable/internal/core"
	"degradable/internal/runner"
	"degradable/internal/spec"
	"degradable/internal/stats"
	"degradable/internal/types"
)

// Values used across all experiments.
const (
	// Alpha is the honest sender value.
	Alpha types.Value = 1001
	// Beta is the adversary's forged value.
	Beta types.Value = 2002
)

// Check is one machine-verified claim.
type Check struct {
	Name   string
	OK     bool
	Detail string
}

// Result is an experiment's output.
type Result struct {
	// ID is the experiment identifier ("E1".."E8").
	ID string
	// Title describes the paper artifact reproduced.
	Title string
	// Table is the regenerated table/figure data.
	Table *stats.Table
	// Checks are the verified claims.
	Checks []Check
	// Notes carries caveats (e.g. the E7 conjecture labelling).
	Notes string
}

// AllOK reports whether every check passed.
func (r *Result) AllOK() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// FailedChecks renders the failing checks, if any.
func (r *Result) FailedChecks() string {
	var parts []string
	for _, c := range r.Checks {
		if !c.OK {
			parts = append(parts, fmt.Sprintf("%s: %s", c.Name, c.Detail))
		}
	}
	return strings.Join(parts, "; ")
}

// Experiment is a named runnable experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(seed int64) (*Result, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "E1", Title: "Minimum nodes for m/u-degradable agreement (§2 table)", Run: MinNodesTable},
		{ID: "E2", Title: "Seven-node trade-off: 2/2 vs 1/4 vs 0/6 (§2)", Run: TradeoffSeven},
		{ID: "E3", Title: "Figure 2 lower-bound scenarios (Theorem 2)", Run: Fig2Scenarios},
		{ID: "E4", Title: "Figure 1 multi-channel systems: OM vs degradable", Run: Fig1Channels},
		{ID: "E5", Title: "Connectivity bound m+u+1 (Theorem 3)", Run: ConnectivitySweep},
		{ID: "E6", Title: "Message and round complexity (§4)", Run: ComplexityTable},
		{ID: "E7", Title: "Degradable clock synchronization (§6, conjecture)", Run: ClockSyncTable},
		{ID: "E8", Title: "Relaxed timeout model (§6.1)", Run: RelaxedTimeoutTable},
	}
}

// batteryWorst runs the full adversary battery for every fault set of size f
// over protocol p and reports whether every verdict held, plus a diagnostic
// of the first failure.
func batteryWorst(p core.Params, f int, seed int64) (bool, string) {
	all := make([]types.NodeID, p.N)
	for i := range all {
		all[i] = types.NodeID(i)
	}
	ok, detail := true, ""
	types.Subsets(all, f, func(faulty types.NodeSet) bool {
		honest := make([]types.NodeID, 0, p.N)
		for _, id := range all {
			if !faulty.Contains(id) {
				honest = append(honest, id)
			}
		}
		ctx := adversary.Context{N: p.N, Sender: p.Sender, SenderValue: Alpha, Alt: Beta, Honest: honest}
		for _, sc := range adversary.Battery() {
			in := runner.Instance{
				Protocol:    p,
				SenderValue: Alpha,
				Strategies:  sc.Build(faulty.IDs(), seed, ctx),
			}
			_, verdict, err := in.Run()
			if err != nil {
				ok, detail = false, err.Error()
				return false
			}
			if !verdict.OK || !verdict.Graceful {
				ok = false
				detail = fmt.Sprintf("faulty=%v scenario=%s: %s %s", faulty, sc.Name, verdict.Condition, verdict.Reason)
				return false
			}
		}
		return true
	})
	return ok, detail
}

// worstClasses runs the battery and returns the largest observed number of
// fault-free receivers deciding the default value (the depth of degradation).
func worstClasses(p core.Params, f int, seed int64) (maxDefaults int, verdictCond string) {
	all := make([]types.NodeID, p.N)
	for i := range all {
		all[i] = types.NodeID(i)
	}
	types.Subsets(all, f, func(faulty types.NodeSet) bool {
		honest := make([]types.NodeID, 0, p.N)
		for _, id := range all {
			if !faulty.Contains(id) {
				honest = append(honest, id)
			}
		}
		ctx := adversary.Context{N: p.N, Sender: p.Sender, SenderValue: Alpha, Alt: Beta, Honest: honest}
		for _, sc := range adversary.Battery() {
			in := runner.Instance{Protocol: p, SenderValue: Alpha, Strategies: sc.Build(faulty.IDs(), seed, ctx)}
			_, verdict, err := in.Run()
			if err != nil {
				continue
			}
			verdictCond = verdict.Condition
			if d := verdict.Classes[types.Default]; d > maxDefaults {
				maxDefaults = d
			}
		}
		return true
	})
	return maxDefaults, verdictCond
}

var _ = spec.RegimeClassic // spec is used by sibling files in this package
