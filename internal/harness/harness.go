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
	"degradable/internal/runner"
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

// armedRun is one battery scenario armed on one fault set.
type armedRun struct {
	faulty     types.NodeSet
	index      int    // the scenario's place in adversary.Battery()
	name       string // the scenario's name
	strategies map[types.NodeID]adversary.Strategy
}

// eachBattery calls fn with every adversary.Battery() scenario armed on
// every fault set of size f out of n nodes, fault sets in types.Subsets
// order, the honest sender holding Alpha and the liars Beta. An error from
// fn stops the sweep and is returned.
func eachBattery(n int, sender types.NodeID, f int, seed int64, fn func(armedRun) error) error {
	all := make([]types.NodeID, n)
	for i := range all {
		all[i] = types.NodeID(i)
	}
	var err error
	types.Subsets(all, f, func(faulty types.NodeSet) bool {
		honest := make([]types.NodeID, 0, n)
		for _, id := range all {
			if !faulty.Contains(id) {
				honest = append(honest, id)
			}
		}
		ctx := adversary.Context{N: n, Sender: sender, SenderValue: Alpha, Alt: Beta, Honest: honest}
		for i, sc := range adversary.Battery() {
			err = fn(armedRun{faulty: faulty, index: i, name: sc.Name, strategies: sc.Build(faulty.IDs(), seed, ctx)})
			if err != nil {
				return false
			}
		}
		return true
	})
	return err
}

// worst is what one battery sweep found.
type worst struct {
	// ok reports that every verdict held, and with it the §2 floor (m+1
	// fault-free nodes agree) wherever N > 2m+u promises it.
	ok bool
	// detail describes the first failure.
	detail string
	// defaults is the most fault-free receivers one run left on V_d: the
	// depth of degradation.
	defaults int
	// cond is the condition the last run was judged by.
	cond string
}

// batteryWorst runs protocol p under the whole battery on every fault set
// of size f and judges every run.
func batteryWorst(p runner.Protocol, f int, seed int64) worst {
	n, _, sender := p.System()
	m, u := p.Thresholds()
	floor := n > 2*m+u
	w := worst{ok: true}
	err := eachBattery(n, sender, f, seed, func(r armedRun) error {
		_, verdict, err := runner.Instance{Protocol: p, SenderValue: Alpha, Strategies: r.strategies}.Run()
		if err != nil {
			return err
		}
		w.cond = verdict.Condition
		w.defaults = max(w.defaults, verdict.Classes[types.Default])
		if w.ok && (!verdict.OK || floor && !verdict.Graceful) {
			w.ok = false
			w.detail = fmt.Sprintf("faulty=%v scenario=%s: %s %s", r.faulty, r.name, verdict.Condition, verdict.Reason)
		}
		return nil
	})
	if err != nil {
		w.ok, w.detail = false, err.Error()
	}
	return w
}
