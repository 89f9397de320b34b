package harness

import (
	"fmt"

	"degradable/internal/ablation"
	"degradable/internal/adversary"
	"degradable/internal/clocksync"
	"degradable/internal/core"
	"degradable/internal/protocol/ic"
	"degradable/internal/stats"
	"degradable/internal/types"
)

// Extensions returns the experiments beyond the paper's own tables and
// figures: the §2 Bhandari discussion made executable (E9), the §6.2
// witness-clock example (E10), and design ablations for the algorithm's
// voting rule (E11). `degradable experiments` runs them after E1–E8.
func Extensions() []Experiment {
	return []Experiment{
		{ID: "E9", Title: "Interactive consistency and the Bhandari boundary (§2)", Run: BhandariTable},
		{ID: "E10", Title: "Witness clocks (§6.2): decoupling clock and processor faults", Run: WitnessClockTable},
		{ID: "E11", Title: "Ablations: why VOTE(n_σ−1−m, n_σ−1)", Run: AblationTable},
		{ID: "E12", Title: "Node budgets: SM vs OM vs degradable", Run: NodeBudgetTable},
		{ID: "E13", Title: "Safety under random faults (Monte Carlo, §3)", Run: ReliabilityTable},
		{ID: "E14", Title: "Degradable approximate agreement (§6 conjecture, formalized)", Run: ApproxTable},
		{ID: "E15", Title: "Stateful channel pipeline: rollback and feedback resync", Run: PipelineTable},
		{ID: "E16", Title: "Chaos campaign: seeded fault injection across the default grid", Run: ChaosCampaignTable},
	}
}

// AllWithExtensions returns the paper experiments followed by the extensions.
func AllWithExtensions() []Experiment {
	return append(All(), Extensions()...)
}

// BhandariTable reproduces the paper's §2 discussion of Bhandari's result:
// interactive consistency algorithms resilient to ⌊(N−1)/3⌋ faults cannot
// degrade gracefully past N/3, while m/u-degradable agreement — which
// deliberately keeps m below ⌊(N−1)/3⌋ — degrades gracefully out to u.
// Both sides of the boundary are exhibited on the same seven nodes.
func BhandariTable(seed int64) (*Result, error) {
	res := &Result{
		ID:    "E9",
		Title: "Interactive consistency: maximal resilience vs degradable trade (N=7)",
	}
	vals := make([]types.Value, 7)
	for i := range vals {
		vals[i] = types.Value(100 + 10*i)
	}
	table := stats.NewTable("Per-entry degradable conditions over the adversary battery (fixed fault sets)",
		"system", "f", "entries two-class", "entries graceful")

	type side struct {
		name    string
		p       ic.Params
		checkMU [2]int // (m, u) used for the per-entry degradable check
		faulty  [][]types.NodeID
	}
	sides := []side{
		{
			name:    "classic IC via OM(2)",
			p:       ic.Params{N: 7, M: 2, U: 2},
			checkMU: [2]int{2, 3},
			faulty:  [][]types.NodeID{{6}, {5, 6}, {0, 5, 6}},
		},
		{
			name:    "degradable IC 1/4",
			p:       ic.Params{N: 7, M: 1, U: 4, Degradable: true},
			checkMU: [2]int{1, 4},
			faulty:  [][]types.NodeID{{6}, {5, 6}, {0, 5, 6}, {0, 2, 5, 6}},
		},
	}
	classicBrokeBeyondBound := false
	for _, s := range sides {
		for _, faultyIDs := range s.faulty {
			faulty := types.NewNodeSet(faultyIDs...)
			honest := make([]types.NodeID, 0, 7)
			for i := 0; i < 7; i++ {
				if !faulty.Contains(types.NodeID(i)) {
					honest = append(honest, types.NodeID(i))
				}
			}
			allTwoClass, allGraceful := true, true
			for _, sc := range adversary.Battery() {
				sc := sc
				plan := func(sender types.NodeID) map[types.NodeID]adversary.Strategy {
					ctx := adversary.Context{
						N: 7, Sender: sender, SenderValue: vals[sender], Alt: Beta, Honest: honest,
					}
					return sc.Build(faultyIDs, seed, ctx)
				}
				out, err := ic.Run(s.p, vals, plan)
				if err != nil {
					return nil, err
				}
				check := ic.Check(ic.Params{N: 7, M: s.checkMU[0], U: s.checkMU[1], Degradable: true},
					vals, faulty, out)
				if !check.OK {
					allTwoClass = false
				}
				if !check.Graceful {
					allGraceful = false
				}
			}
			f := len(faultyIDs)
			table.AddRow(s.name, f, allTwoClass, allGraceful)
			if s.p.Degradable {
				res.Checks = append(res.Checks, Check{
					Name: fmt.Sprintf("degradable IC f=%d: every entry two-class and graceful", f),
					OK:   allTwoClass && allGraceful,
				})
			} else {
				if f <= s.p.M {
					res.Checks = append(res.Checks, Check{
						Name: fmt.Sprintf("classic IC f=%d (≤ m): entries hold", f),
						OK:   allTwoClass,
					})
				} else if !allTwoClass {
					classicBrokeBeyondBound = true
				}
			}
		}
	}
	res.Checks = append(res.Checks, Check{
		Name:   "classic IC degrades NON-gracefully one fault past ⌊(N−1)/3⌋ (Bhandari)",
		OK:     classicBrokeBeyondBound,
		Detail: "some 3-fault adversary forces two distinct non-default values on one entry",
	})
	res.Table = table
	res.Notes = "Bhandari [1] proved maximally-resilient interactive consistency cannot degrade " +
		"gracefully past N/3; the paper notes this does not apply to m/u-degradable agreement with " +
		"m < ⌊(N−1)/3⌋. Both facts are exhibited here on the same 7 nodes."
	return res, nil
}

// WitnessClockTable reproduces the §6.2 example: the four-node Figure 1(b)
// system cannot tolerate two Byzantine clock faults with four clocks, but
// adding two witness clocks (six total) bounds every processor's derived
// time base despite two two-faced clocks.
func WitnessClockTable(seed int64) (*Result, error) {
	res := &Result{
		ID:    "E10",
		Title: "Witness clocks: 4-node system, clock pool 4 vs 6, two clock faults",
	}
	table := stats.NewTable("Two two-faced faulty clocks; 50 resync rounds, period 100",
		"clocks", "witnesses", "phi", "pool > 3·phi", "worst reader skew", "bounded")
	for _, pool := range []int{4, 5, 6, 7} {
		p := clocksync.WitnessParams{Nodes: 4, Clocks: pool, Phi: 2, Epsilon: 1.0}
		faulty := map[int]clocksync.ReadFunc{
			pool - 1: clocksync.TwoFacedClock(types.NewNodeSet(0, 1), +100, -100),
			pool - 2: clocksync.TwoFacedClock(types.NewNodeSet(0, 1), +100, -100),
		}
		sys, err := clocksync.NewWitnessSystem(p, clocksync.DriftedClocks(pool, seed, 0.3, 1e-4), faulty)
		if err != nil {
			return nil, err
		}
		rep := sys.RunWitnessMission(100, 50)
		bounded := rep.WorstReaderSkew <= 1.0
		table.AddRow(pool, pool-4, 2, p.Sufficient(), rep.WorstReaderSkew, bounded)
		switch {
		case pool >= 6:
			res.Checks = append(res.Checks, Check{
				Name:   fmt.Sprintf("pool=%d: reader skew bounded with 2 clock faults", pool),
				OK:     bounded,
				Detail: fmt.Sprintf("skew=%.3f", rep.WorstReaderSkew),
			})
		case pool == 4:
			res.Checks = append(res.Checks, Check{
				Name:   "pool=4: two clock faults break the 4-clock pool",
				OK:     !bounded,
				Detail: fmt.Sprintf("skew=%.3f", rep.WorstReaderSkew),
			})
		}
	}
	res.Table = table
	res.Notes = "§6.2's example, executable: adding two witness clocks to the four-node system " +
		"makes it 'capable of tolerating two clock failures' while the processors keep running " +
		"1/2-degradable agreement."
	return res, nil
}

// AblationTable justifies the voting-rule design: each ablation of VOTE's
// ingredients is broken by a concrete adversary that the real rule absorbs,
// and the tie rule is shown to be unreachable inside the protocol.
func AblationTable(int64) (*Result, error) {
	res := &Result{
		ID:    "E11",
		Title: "Design ablations of the per-level VOTE rule",
	}
	table := stats.NewTable("Each row: one rule variant against its designated break scenario",
		"rule", "scenario", "condition", "holds")

	// Scenario 1: majority vs the D.4 splitting adversary.
	p1, strat1 := ablation.MajorityBreakScenario(Beta, Beta+1)
	for _, r := range []ablation.Rule{ablation.RulePaper, ablation.RuleMajority} {
		v, _, err := ablation.Run(p1, r, Alpha, strat1)
		if err != nil {
			return nil, err
		}
		table.AddRow(r.String(), "faulty sender + 2 confirmers (f=3, N=6, 1/3)", v.Condition, v.OK)
		wantOK := r == ablation.RulePaper
		res.Checks = append(res.Checks, Check{
			Name:   fmt.Sprintf("%s rule on the D.4 split: holds == %v", r, wantOK),
			OK:     v.OK == wantOK,
			Detail: v.Reason,
		})
	}

	// Scenario 2: fixed threshold vs two silent faults in the classic regime.
	p2, strat2 := ablation.FixedThresholdBreakScenario()
	for _, r := range []ablation.Rule{ablation.RulePaper, ablation.RuleFixedThreshold} {
		v, _, err := ablation.Run(p2, r, Alpha, strat2)
		if err != nil {
			return nil, err
		}
		table.AddRow(r.String(), "2 silent receivers (f=m=2, N=7, 2/2)", v.Condition, v.OK)
		wantOK := r == ablation.RulePaper
		res.Checks = append(res.Checks, Check{
			Name:   fmt.Sprintf("%s rule on silent faults: holds == %v", r, wantOK),
			OK:     v.OK == wantOK,
			Detail: v.Reason,
		})
	}

	// Fact: VOTE's tie rule is unreachable inside BYZ(m,m).
	allUnreachable := true
	for _, p := range []core.Params{
		{N: 5, M: 1, U: 2}, {N: 7, M: 2, U: 2}, {N: 10, M: 3, U: 3}, {N: 12, M: 3, U: 5},
	} {
		ok, err := ablation.TieUnreachable(p)
		if err != nil {
			return nil, err
		}
		if !ok {
			allUnreachable = false
		}
	}
	table.AddRow("paper (tie rule)", "arithmetic over all internal levels", "—", allUnreachable)
	res.Checks = append(res.Checks, Check{
		Name:   "tie rule unreachable inside BYZ(m,m) (threshold > half at every level)",
		OK:     allUnreachable,
		Detail: "the tie rule matters only for external VOTE uses such as the entity's k-of-n",
	})
	res.Table = table
	res.Notes = "The per-level threshold n_σ−1−m is load-bearing in both directions: lowering it " +
		"to a majority admits under-supported values (D.4 break), and freezing it at the top-level " +
		"value starves honest subtrees (D.1 break)."
	return res, nil
}
