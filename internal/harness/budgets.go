package harness

import (
	"fmt"

	"degradable/internal/adversary"
	"degradable/internal/channels"
	"degradable/internal/core"
	"degradable/internal/protocol/om"
	"degradable/internal/protocol/sm"
	"degradable/internal/rng"
	"degradable/internal/runner"
	"degradable/internal/stats"
	"degradable/internal/types"
)

// NodeBudgetTable (E12) puts the three classical node budgets side by side
// and demonstrates each at its minimum size:
//
//	SM(m)  (signed messages):  N ≥ m+2
//	OM(m)  (oral messages):    N ≥ 3m+1
//	BYZ(m,u) (degradable):     N ≥ 2m+u+1
//
// The degradable trade sits strictly between the authenticated and oral
// models: fewer nodes than OM once u < m+... precisely, 2m+u+1 < 3m+1 never
// holds for u ≥ m, but 2m+u+1 buys *degraded reach to u* that OM cannot
// offer at any size without signatures. The table makes the three-way
// comparison concrete and verifies each algorithm at its own bound.
func NodeBudgetTable(seed int64) (*Result, error) {
	res := &Result{
		ID:    "E12",
		Title: "Node budgets: SM(m) vs OM(m) vs m/u-degradable at minimum size",
	}
	table := stats.NewTable("Minimum node counts and verified guarantees",
		"protocol", "m", "u", "N_min", "guarantee at f≤m", "guarantee m<f≤u", "verified")

	// SM(m) at N = m+2 and OM(m) at N = 3m+1, the battery over every fault
	// set of at most m nodes.
	for _, m := range []int{1, 2} {
		w := classicWorst(sm.Params{N: m + 2, M: m}, seed)
		table.AddRow(fmt.Sprintf("SM(%d) signed", m), m, "-", m+2, "full agreement", "none", w.ok)
		res.Checks = append(res.Checks, Check{
			Name:   fmt.Sprintf("SM(%d) agreement at N=%d", m, m+2),
			OK:     w.ok,
			Detail: w.detail,
		})
	}
	for _, m := range []int{1, 2} {
		w := classicWorst(om.Params{N: 3*m + 1, M: m}, seed)
		table.AddRow(fmt.Sprintf("OM(%d) oral", m), m, "-", 3*m+1, "full agreement", "none", w.ok)
		res.Checks = append(res.Checks, Check{
			Name:   fmt.Sprintf("OM(%d) agreement at N=%d", m, 3*m+1),
			OK:     w.ok,
			Detail: w.detail,
		})
	}
	// Degradable at N = 2m+u+1.
	for _, mu := range []struct{ m, u int }{{1, 2}, {1, 4}, {2, 3}} {
		nmin, err := core.MinNodes(mu.m, mu.u)
		if err != nil {
			return nil, err
		}
		p := core.Params{N: nmin, M: mu.m, U: mu.u}
		w := batteryWorst(p, mu.u, seed)
		table.AddRow(fmt.Sprintf("BYZ(%d/%d) degradable", mu.m, mu.u), mu.m, mu.u, nmin,
			"full agreement", "two-class (value | V_d)", w.ok)
		res.Checks = append(res.Checks, Check{
			Name:   fmt.Sprintf("BYZ(%d/%d) at N=%d under f=u", mu.m, mu.u, nmin),
			OK:     w.ok,
			Detail: w.detail,
		})
	}
	res.Table = table
	res.Notes = "Signatures buy the smallest systems but need a key infrastructure; oral messages " +
		"need 3m+1; the degradable trade spends nodes between the two to purchase a safety " +
		"guarantee (value-or-default) past m that neither unauthenticated baseline offers."
	return res, nil
}

// classicWorst sweeps the battery over p at every fault count 0..m and
// stops at the first count that fails.
func classicWorst(p runner.Protocol, seed int64) worst {
	m, _ := p.Thresholds()
	for f := 0; ; f++ {
		if w := batteryWorst(p, f, seed); !w.ok || f == m {
			return w
		}
	}
}

// ReliabilityTable (E13) is the §3 safety argument as a Monte-Carlo
// experiment: with every node independently faulty with probability q, how
// often does the external entity of each Figure-1 system receive an unsafe
// (wrong, non-default) value? The degradable quad converts the OM triplex's
// unsafe outcomes into safe defaults whenever the sender survives and at
// most u channels fail — the paper's "improves the safety of the system".
func ReliabilityTable(seed int64) (*Result, error) {
	res := &Result{
		ID:    "E13",
		Title: "Safety under random faults: unsafe-output probability (Figure 1 systems)",
	}
	const trials = 250
	table := stats.NewTable(fmt.Sprintf("%d Monte-Carlo missions per cell (1 step each, colluding camp adversary)", trials),
		"q (per-node fault prob)", "system", "correct", "default", "unsafe", "unsafe w/ healthy sender ≤ u")

	for _, q := range []float64{0.05, 0.15, 0.30} {
		rates := make(map[channels.Kind][3]int)
		for _, cfg := range []channels.Config{channels.OMConfig(1), channels.DegradableConfig(1, 2)} {
			rng := rng.New(seed + int64(q*1000))
			var correct, def, unsafe, c2bad int
			for trial := 0; trial < trials; trial++ {
				// Sample the fault set.
				var faultyIDs []types.NodeID
				for i := 0; i < cfg.N(); i++ {
					if rng.Float64() < q {
						faultyIDs = append(faultyIDs, types.NodeID(i))
					}
				}
				honest := make([]types.NodeID, 0, cfg.N())
				faulty := types.NewNodeSet(faultyIDs...)
				for i := 0; i < cfg.N(); i++ {
					if !faulty.Contains(types.NodeID(i)) {
						honest = append(honest, types.NodeID(i))
					}
				}
				// Arm the strongest battery scenario (camp split).
				camps := make(map[types.NodeID]types.Value, len(honest))
				for i, id := range honest {
					if i%2 == 0 {
						camps[id] = Alpha
					} else {
						camps[id] = Beta
					}
				}
				strategies := make(map[types.NodeID]adversary.Strategy, len(faultyIDs))
				for _, id := range faultyIDs {
					strategies[id] = adversary.CampLie{Camps: camps}
				}
				sr, err := channels.Step(cfg, Alpha, strategies, 1)
				if err != nil {
					return nil, err
				}
				switch sr.Outcome {
				case channels.OutcomeCorrect:
					correct++
				case channels.OutcomeDefault:
					def++
				case channels.OutcomeUnsafe:
					unsafe++
					if !faulty.Contains(0) && len(faultyIDs) <= cfg.U {
						c2bad++
					}
				}
			}
			rates[cfg.Kind] = [3]int{correct, def, unsafe}
			name := "Fig1(a) OM triplex"
			if cfg.Kind == channels.KindDegradable {
				name = "Fig1(b) degradable quad"
			}
			table.AddRow(q, name, correct, def, unsafe, c2bad)
			if cfg.Kind == channels.KindDegradable {
				res.Checks = append(res.Checks, Check{
					Name:   fmt.Sprintf("q=%.2f: degradable never unsafe with healthy sender and f ≤ u", q),
					OK:     c2bad == 0,
					Detail: fmt.Sprintf("%d C.2 violations", c2bad),
				})
			}
		}
		res.Checks = append(res.Checks, Check{
			Name: fmt.Sprintf("q=%.2f: degradable unsafe count ≤ OM unsafe count", q),
			OK:   rates[channels.KindDegradable][2] <= rates[channels.KindOM][2],
			Detail: fmt.Sprintf("degradable=%d OM=%d",
				rates[channels.KindDegradable][2], rates[channels.KindOM][2]),
		})
	}
	res.Table = table
	res.Notes = "Unsafe outputs require either a faulty sender (no protocol helps — the entity " +
		"votes on garbage-in) or more than u faults; the degradable system converts the rest " +
		"into safe defaults. The OM triplex goes unsafe as soon as two camps-splitting faults land."
	return res, nil
}
