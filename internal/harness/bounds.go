package harness

import (
	"fmt"

	"degradable/internal/core"
	"degradable/internal/lowerbound"
	"degradable/internal/spec"
	"degradable/internal/stats"
)

// MinNodesTable reproduces the paper's §2 table of minimum node counts for
// m/u-degradable agreement (rows u = 1..6, columns m = 0..3; infeasible
// cells m > u are dashed), and validates it from both sides:
//
//   - sufficiency: the algorithm survives the full adversary battery at
//     exactly N = 2m+u+1 for a representative set of cells;
//   - necessity: the lifted Figure-2 scenario violates the spec at
//     N = 2m+u for every cell with m ≥ 1, u > m.
func MinNodesTable(seed int64) (*Result, error) {
	res := &Result{
		ID:    "E1",
		Title: "Minimum number of nodes necessary for m/u-degradable agreement (2m+u+1)",
	}
	table := stats.NewTable("Minimum nodes N_min(m,u); '-' = infeasible (m > u)",
		"u", "m=0", "m=1", "m=2", "m=3")
	for u := 1; u <= 6; u++ {
		row := make([]interface{}, 0, 5)
		row = append(row, u)
		for m := 0; m <= 3; m++ {
			n, err := core.MinNodes(m, u)
			if err != nil {
				row = append(row, "-")
				continue
			}
			row = append(row, n)
		}
		table.AddRow(row...)
	}
	res.Table = table

	// Sufficiency spot-checks at N = N_min, worst fault count f = u.
	for _, cell := range []struct{ m, u int }{{0, 2}, {1, 1}, {1, 2}, {1, 3}, {2, 2}} {
		nmin, err := core.MinNodes(cell.m, cell.u)
		if err != nil {
			return nil, err
		}
		p := core.Params{N: nmin, M: cell.m, U: cell.u}
		w := batteryWorst(p, cell.u, seed)
		res.Checks = append(res.Checks, Check{
			Name:   fmt.Sprintf("sufficiency m=%d u=%d at N=%d", cell.m, cell.u, nmin),
			OK:     w.ok,
			Detail: w.detail,
		})
	}

	// Necessity: the lifted Figure-2 violation at N = 2m+u (δ = u−m ≥ 1).
	rep, err := lowerbound.Fig2Scenarios(Alpha, Beta)
	if err != nil {
		return nil, err
	}
	for _, cell := range []struct{ m, u int }{{1, 2}, {1, 3}, {2, 3}, {2, 4}, {3, 4}} {
		exec, err := lowerbound.Lift(rep.C, cell.m, cell.u-cell.m)
		if err != nil {
			return nil, err
		}
		v := spec.Check(exec)
		res.Checks = append(res.Checks, Check{
			Name:   fmt.Sprintf("necessity m=%d u=%d at N=%d", cell.m, cell.u, 2*cell.m+cell.u),
			OK:     !v.OK,
			Detail: fmt.Sprintf("lifted scenario (c) verdict: %+v", v.OK),
		})
	}
	return res, nil
}

// TradeoffSeven reproduces the paper's seven-node example: the same system
// can run 2/2-, 1/4-, or 0/6-degradable agreement, trading full Byzantine
// tolerance for degraded reach.
func TradeoffSeven(seed int64) (*Result, error) {
	res := &Result{
		ID:    "E2",
		Title: "Seven nodes: 2/2- vs 1/4- vs 0/6-degradable agreement",
	}
	table := stats.NewTable("N=7 trade-off (worst case over the adversary battery and all fault sets)",
		"m/u", "f", "regime", "conditions hold", "max receivers on V_d")
	for _, mu := range []struct{ m, u int }{{2, 2}, {1, 4}, {0, 6}} {
		p := core.Params{N: 7, M: mu.m, U: mu.u}
		for f := 0; f <= mu.u; f++ {
			w := batteryWorst(p, f, seed)
			regime := "classic"
			if f > mu.m {
				regime = "degraded"
			}
			table.AddRow(fmt.Sprintf("%d/%d", mu.m, mu.u), f, regime, w.ok, w.defaults)
			res.Checks = append(res.Checks, Check{
				Name:   fmt.Sprintf("%d/%d f=%d (%s)", mu.m, mu.u, f, w.cond),
				OK:     w.ok,
				Detail: w.detail,
			})
		}
	}
	res.Table = table
	res.Notes = "All three parameterizations of the same 7 nodes satisfy their respective " +
		"conditions up to u faults; larger u buys reach at the price of degraded (two-class) decisions."
	return res, nil
}

// Fig2Scenarios reproduces Figure 2: the three 4-node fault scenarios, the
// two view-indistinguishability claims, and the forced violation.
func Fig2Scenarios(int64) (*Result, error) {
	res := &Result{
		ID:    "E3",
		Title: "Figure 2: 1/2-degradable agreement is impossible with 4 nodes",
	}
	rep, err := lowerbound.Fig2Scenarios(Alpha, Beta)
	if err != nil {
		return nil, err
	}
	table := stats.NewTable("Figure 2 scenarios (α=1001, β=2002; S=0 A=1 B=2 C=3)",
		"scenario", "faulty", "sender value", "A decides", "B decides", "C decides", "condition", "holds")
	for _, r := range []lowerbound.ScenarioResult{rep.A, rep.B, rep.C} {
		table.AddRow(r.Name, r.Faulty.String(), r.SenderValue,
			r.Decisions[lowerbound.NodeA], r.Decisions[lowerbound.NodeB], r.Decisions[lowerbound.NodeC],
			r.Verdict.Condition, r.Verdict.OK)
	}
	res.Table = table
	res.Checks = []Check{
		{Name: "B's view identical in (a) and (b)", OK: rep.ViewBEqualAB},
		{Name: "A's view identical in (b) and (c)", OK: rep.ViewAEqualBC},
		{Name: "at least one scenario violated", OK: len(rep.Violated) > 0,
			Detail: fmt.Sprintf("violated: %v", rep.Violated)},
		{Name: "scenario (c) is the violation (A forced to β)", OK: !rep.C.Verdict.OK},
	}
	res.Notes = "The indistinguishability chain forces node A to decide β in scenario (c), " +
		"violating D.3 — exactly the Theorem 2, Part I argument, executed."
	return res, nil
}
