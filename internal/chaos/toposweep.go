package chaos

import (
	"fmt"
	"math/rand"

	"degradable/internal/adversary"
	"degradable/internal/rng"
	"degradable/internal/types"
)

// TopoCell is one golden-table cell of the topology sweep: a graph family ×
// fault placement × fault count, run several times and judged against the
// Theorem 3 boundary.
type TopoCell struct {
	Graph     string `json:"graph"`
	Placement string `json:"placement"`
	F         int    `json:"f"`
	Kappa     int    `json:"kappa"`
	// ConnectivityMargin is κ − (m+u+1); negative cells run loose as
	// lower-bound demonstrations.
	ConnectivityMargin int `json:"connectivity_margin"`
	// ClassicBAOK is the Dolev baseline (κ ≥ 2f+1 and n ≥ 3f+1): can ANY
	// classic Byzantine agreement run on this graph with this fault count?
	ClassicBAOK bool `json:"classic_ba_ok"`
	// Verdict summarizes the cell: "holds" (spec held, classic regime),
	// "degrades" (spec held, degraded regime), "graceful-only", or "fails".
	Verdict string `json:"verdict"`
	// ClassicRefusedDegradableOK marks the paper's selling-point cells:
	// classic BA's connectivity bound refuses the graph, degradable
	// agreement still delivers its spec.
	ClassicRefusedDegradableOK bool `json:"classic_refused_degradable_ok"`
	Runs                       int  `json:"runs"`
	SpecHeld                   int  `json:"spec_held"`
	GracefulOnly               int  `json:"graceful_only"`
	Violated                   int  `json:"violated"`
	DegradedTotal              int  `json:"degraded_total"`
	// HopsPerLogicalMsg is physical link traversals per logical protocol
	// message over the cell's runs: exactly 1 on a complete graph.
	HopsPerLogicalMsg float64 `json:"hops_per_logical_msg"`
}

// TopoBench is the Theorem 3 boundary table degradable chaos -topo-sweep writes:
// every cell plus the aggregates its summary line reports.
type TopoBench struct {
	Seed        int64      `json:"seed"`
	RunsPerCell int        `json:"runs_per_cell"`
	M           int        `json:"m"`
	U           int        `json:"u"`
	Cells       []TopoCell `json:"cells"`
	CellsTotal  int        `json:"cells_total"`
	// CellsHeld counts "holds", CellsDegraded "degrades"; CellsFailed
	// counts "fails" — expected only below the Theorem 3 boundary.
	CellsHeld     int `json:"cells_held"`
	CellsDegraded int `json:"cells_degraded"`
	CellsFailed   int `json:"cells_failed"`
	// ClassicRefused counts cells where classic BA's bounds refuse the
	// graph but the degradable spec still held — the paper's headline.
	ClassicRefused int `json:"classic_refused_degradable_ok"`
	// BoundViolations counts Violated outcomes in cells at margin ≥ 0 with
	// f ≤ u — Theorem 3 predicts exactly zero, so any nonzero value is a
	// regression.
	BoundViolations int `json:"bound_violations"`
	DegradedTotal   int `json:"degraded_total"`
	HopsTotal       int `json:"hops_total"`
}

// sweepFamilies are the golden-table rows: every generator family at or
// above the Theorem 3 bound for (m=1, u=2), plus two deliberately
// below-bound graphs (κ = m+u) that run loose as lower-bound rows.
func sweepFamilies() []struct {
	def   string
	loose bool
} {
	return []struct {
		def   string
		loose bool
	}{
		{"complete:7", false},     // κ=6, margin +2: the flat baseline
		{"harary:4:9", false},     // κ=4, margin 0: minimum-edge boundary graph
		{"hypercube:4", false},    // κ=4, margin 0
		{"bridge:3:4:3", false},   // κ=4, margin 0: explicit 4-node cut set
		{"cliquering:4:2", false}, // κ=4, margin 0
		{"gnp:9:0.7:1", false},    // random, conditioned on connectivity
		{"harary:3:8", true},      // κ=3, margin −1: necessity demonstration
		{"bridge:3:3:3", true},    // κ=3, margin −1: 3-node cut, one short
	}
}

// TopologySweep runs the Theorem 3 boundary table: every sweep family ×
// fault placement {uniform, cutset} × f ∈ {1, 2} for the (m=1, u=2)
// instance, runsPerCell seeded runs per cell. Fully deterministic for a
// given seed.
func TopologySweep(seed int64, runsPerCell int) (*TopoBench, error) {
	if runsPerCell <= 0 {
		runsPerCell = 4
	}
	const m, u = 1, 2
	bench := &TopoBench{Seed: seed, RunsPerCell: runsPerCell, M: m, U: u}
	cellIdx := 0
	for _, fam := range sweepFamilies() {
		ts := TopoSpec{Graph: fam.def, Loose: fam.loose}
		an, err := ts.analyze()
		if err != nil {
			return nil, err
		}
		n, kappa, cut := an.N, an.Kappa, an.Cut()
		for _, placement := range []string{PlacementUniform, PlacementCutset} {
			for f := 1; f <= m+1; f++ {
				cell := TopoCell{
					Graph:              fam.def,
					Placement:          placement,
					F:                  f,
					Kappa:              kappa,
					ConnectivityMargin: kappa - (m + u + 1),
					ClassicBAOK:        classicBAOK(n, kappa, f),
					Runs:               runsPerCell,
				}
				var hops, messages int
				for r := 0; r < runsPerCell; r++ {
					rng := rng.New(mix(seed, int64(cellIdx)*1000+int64(r)+1))
					sc := Scenario{
						N: n, M: m, U: u,
						SenderValue: harnessValue,
						Seed:        rng.Int63(),
						Driver:      DriverSequential,
						Faults:      sweepFaults(rng, n, f, placement, cut),
						Topology: &TopoSpec{
							Graph:     fam.def,
							Placement: placement,
							Loose:     fam.loose,
						},
					}
					out, err := sc.Run()
					if err != nil {
						return nil, fmt.Errorf("chaos: sweep cell %s/%s/f=%d run %d: %w",
							fam.def, placement, f, r, err)
					}
					switch out.ClassValue() {
					case SpecHeld:
						cell.SpecHeld++
					case GracefulOnly:
						cell.GracefulOnly++
					case Violated:
						cell.Violated++
						if cell.ConnectivityMargin >= 0 && f <= u {
							bench.BoundViolations++
						}
					}
					cell.DegradedTotal += out.Counters.Degraded
					bench.DegradedTotal += out.Counters.Degraded
					bench.HopsTotal += out.Counters.Hops
					hops += out.Counters.Hops
					messages += out.Messages
				}
				if messages > 0 {
					cell.HopsPerLogicalMsg = float64(hops) / float64(messages)
				}
				switch {
				case cell.Violated > 0:
					cell.Verdict = "fails"
				case cell.GracefulOnly > 0:
					cell.Verdict = "graceful-only"
				case f <= m:
					cell.Verdict = "holds"
					bench.CellsHeld++
				default:
					cell.Verdict = "degrades"
					bench.CellsDegraded++
				}
				if cell.Verdict == "fails" {
					bench.CellsFailed++
				}
				if !cell.ClassicBAOK && (cell.Verdict == "holds" || cell.Verdict == "degrades") {
					cell.ClassicRefusedDegradableOK = true
					bench.ClassicRefused++
				}
				bench.Cells = append(bench.Cells, cell)
				bench.CellsTotal++
				cellIdx++
			}
		}
	}
	return bench, nil
}

// sweepFaults draws one cell run's fault set: lying relays pinned on the
// minimum vertex cut (cutset placement, the Theorem 3 necessity adversary)
// or a seeded draw of lie/two-faced/silent behaviours anywhere (uniform).
// The sender (node 0) is exempt so every cell row judges the same D
// conditions.
func sweepFaults(rng *rand.Rand, n, f int, placement string, cut []types.NodeID) []adversary.FaultSpec {
	var pool []types.NodeID
	if placement == PlacementCutset {
		for _, id := range cut {
			if id != 0 {
				pool = append(pool, id)
			}
		}
	}
	for _, v := range rng.Perm(n) {
		id := types.NodeID(v)
		if id == 0 {
			continue
		}
		dup := false
		for _, p := range pool {
			if p == id {
				dup = true
				break
			}
		}
		if !dup {
			pool = append(pool, id)
		}
	}
	if f > len(pool) {
		f = len(pool)
	}
	kinds := []adversary.Kind{adversary.KindLie, adversary.KindTwoFaced, adversary.KindSilent}
	faults := make([]adversary.FaultSpec, 0, f)
	for i := 0; i < f; i++ {
		fs := adversary.FaultSpec{Node: pool[i], Kind: adversary.KindLie, Value: lieValues[0]}
		if placement != PlacementCutset {
			fs.Kind = kinds[rng.Intn(len(kinds))]
			if fs.Kind == adversary.KindSilent {
				fs.Value = 0
			} else {
				fs.Value = lieValues[rng.Intn(len(lieValues))]
			}
		}
		faults = append(faults, fs)
	}
	return faults
}
