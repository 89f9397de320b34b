package chaos

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"degradable/internal/adversary"
	"degradable/internal/types"
)

// TestTopoScenarioBothModes runs one sparse scenario under both mode labels
// and checks the spec holds and the two report identical counters: the mode
// selects no code, and every run counts physical hops.
func TestTopoScenarioBothModes(t *testing.T) {
	base := Scenario{
		N: 9, M: 1, U: 2,
		Faults: []adversary.FaultSpec{{Node: 3, Kind: adversary.KindLie, Value: 2002}},
		Seed:   7,
		Driver: DriverSequential,
	}
	outs := map[string]*Outcome{}
	for _, mode := range []string{TopoModeTransport, TopoModeRouted} {
		sc := base
		sc.Topology = &TopoSpec{Graph: "harary:4:9", Mode: mode}
		out, err := sc.Run()
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if out.ClassValue() != SpecHeld {
			t.Errorf("%s: class = %s, want SpecHeld (%s)", mode, out.Class, out.Reason)
		}
		if out.Topo == nil {
			t.Fatalf("%s: no topo report", mode)
		}
		if out.Topo.Kappa != 4 || out.Topo.Margin != 0 {
			t.Errorf("%s: κ=%d margin=%d, want 4/0", mode, out.Topo.Kappa, out.Topo.Margin)
		}
		if !out.Topo.ClassicBAOK {
			t.Errorf("%s: f=1 on κ=4 should satisfy the classic baseline", mode)
		}
		if out.Topo.HopsPerLogical <= 0 {
			t.Errorf("%s: no physical traffic recorded", mode)
		}
		outs[mode] = out
	}
	tr, ro := outs[TopoModeTransport], outs[TopoModeRouted]
	if tr.Counters != ro.Counters || tr.Topo.HopsPerLogical != ro.Topo.HopsPerLogical {
		t.Errorf("modes differ: transport %+v (%.4f hops/msg), routed %+v (%.4f hops/msg)",
			tr.Counters, tr.Topo.HopsPerLogical, ro.Counters, ro.Topo.HopsPerLogical)
	}
	if tr.Counters.Hops <= tr.Messages {
		t.Errorf("hops %d should exceed messages %d on harary:4:9", tr.Counters.Hops, tr.Messages)
	}
}

// TestTopoNewChannelRejectsUnknownMode pins the refusal the cluster node
// process relies on: it builds its channel without calling Report.
func TestTopoNewChannelRejectsUnknownMode(t *testing.T) {
	ts := &TopoSpec{Graph: "harary:4:9", Mode: "tokens"}
	if _, err := ts.NewChannel(9, 1, 2, nil, 0); err == nil || !strings.Contains(err.Error(), "unknown topology mode") {
		t.Fatalf("NewChannel accepted mode %q: %v", ts.Mode, err)
	}
}

// TestTopoStrictRejectsBelowBound pins the Theorem 3 necessity check at the
// API boundary: a κ = m+u graph is refused outright unless the scenario is
// explicitly a loose lower-bound demonstration — which then promises nothing
// (LevelNone).
func TestTopoStrictRejectsBelowBound(t *testing.T) {
	sc := Scenario{
		N: 9, M: 1, U: 2, Seed: 1,
		Topology: &TopoSpec{Graph: "bridge:3:3:3"},
	}
	if _, err := sc.Run(); err == nil {
		t.Fatal("strict below-bound scenario ran")
	}
	sc.Topology.Loose = true
	if lvl := sc.ResolveLevel(); lvl != LevelNone {
		t.Fatalf("loose below-bound level = %s, want none", lvl)
	}
	if _, err := sc.Run(); err != nil {
		t.Fatalf("loose below-bound scenario refused: %v", err)
	}
}

// TestTheorem3Necessity is the regression for the theorem's necessity half:
// at κ = m+u, u lying cut nodes make the outcome strictly worse than the
// D conditions promise, across (m, u) instances.
func TestTheorem3Necessity(t *testing.T) {
	cases := []struct {
		m, u  int
		graph string
		cut   []types.NodeID // the bridge's cut-set nodes
	}{
		{1, 1, "bridge:2:2:2", []types.NodeID{2, 3}},
		{1, 2, "bridge:3:3:3", []types.NodeID{3, 4, 5}},
		{2, 2, "bridge:3:4:3", []types.NodeID{3, 4, 5, 6}},
	}
	for _, tc := range cases {
		sp, err := topologyNodes(tc.graph)
		if err != nil {
			t.Fatal(err)
		}
		sc := Scenario{
			N: sp, M: tc.m, U: tc.u, Seed: 3,
			Driver:   DriverSequential,
			Topology: &TopoSpec{Graph: tc.graph, Placement: PlacementCutset, Loose: true},
		}
		for i := 0; i < tc.u; i++ { // u liars on the cut: the proof adversary
			sc.Faults = append(sc.Faults, adversary.FaultSpec{
				Node: tc.cut[i], Kind: adversary.KindLie, Value: 2002,
			})
		}
		out, err := sc.Run()
		if err != nil {
			t.Fatalf("%s m=%d u=%d: %v", tc.graph, tc.m, tc.u, err)
		}
		if out.ClassValue() == SpecHeld {
			t.Errorf("%s m=%d u=%d f=%d: spec held at κ=m+u — necessity regression",
				tc.graph, tc.m, tc.u, tc.u)
		}
		if out.Topo.Margin >= 0 {
			t.Errorf("%s: margin %d, want negative", tc.graph, out.Topo.Margin)
		}
	}
}

// TestTheorem3SufficiencyExhaustive is the sufficiency half: at κ = m+u+1,
// NO placement of f ≤ m faults (lying or silent, every node) can break the
// spec.
func TestTheorem3SufficiencyExhaustive(t *testing.T) {
	kinds := []adversary.Kind{adversary.KindLie, adversary.KindSilent}
	// m=1, u=2 on the minimum-edge κ=4 graph: every single fault.
	for node := 0; node < 9; node++ {
		for _, kind := range kinds {
			sc := Scenario{
				N: 9, M: 1, U: 2, Seed: 5,
				Driver:   DriverSequential,
				Faults:   []adversary.FaultSpec{faultOf(types.NodeID(node), kind)},
				Topology: &TopoSpec{Graph: "harary:4:9"},
			}
			out, err := sc.Run()
			if err != nil {
				t.Fatal(err)
			}
			if out.ClassValue() != SpecHeld {
				t.Errorf("harary:4:9 %s@%d: %s (%s)", kind, node, out.Class, out.Reason)
			}
		}
	}
	// m=2, u=2 on a κ=5 bridge: every fault pair, both kinds each.
	for a := 0; a < 9; a++ {
		for b := a + 1; b < 9; b++ {
			for _, ka := range kinds {
				for _, kb := range kinds {
					sc := Scenario{
						N: 9, M: 2, U: 2, Seed: 5,
						Driver: DriverSequential,
						Faults: []adversary.FaultSpec{
							faultOf(types.NodeID(a), ka),
							faultOf(types.NodeID(b), kb),
						},
						Topology: &TopoSpec{Graph: "bridge:2:5:2"},
					}
					out, err := sc.Run()
					if err != nil {
						t.Fatal(err)
					}
					if out.ClassValue() != SpecHeld {
						t.Errorf("bridge:2:5:2 %s@%d+%s@%d: %s (%s)",
							ka, a, kb, b, out.Class, out.Reason)
					}
				}
			}
		}
	}
}

// faultOf arms one node with a test fault (liars forge 2002).
func faultOf(node types.NodeID, kind adversary.Kind) adversary.FaultSpec {
	f := adversary.FaultSpec{Node: node, Kind: kind}
	if kind == adversary.KindLie {
		f.Value = 2002
	}
	return f
}

// topologyNodes returns the node count of a graph definition.
func topologyNodes(def string) (int, error) {
	ts := TopoSpec{Graph: def}
	g, err := ts.BuildGraph()
	if err != nil {
		return 0, err
	}
	return g.N(), nil
}

// TestCampaignTopologyAxis checks the sparse-graph campaign dimension:
// deterministic replay, per-margin tallies, topology stamped on every
// feasible scenario, and expectations holding across the axis.
func TestCampaignTopologyAxis(t *testing.T) {
	c := Campaign{Seed: 99, Runs: 60, Topology: &TopoAxis{}}
	r1, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(r1)
	b2, _ := json.Marshal(r2)
	if string(b1) != string(b2) {
		t.Fatal("topology campaigns with equal seeds diverge")
	}
	if len(r1.TopoMargins) == 0 {
		t.Fatal("no per-margin tallies")
	}
	if len(r1.Failures) != 0 {
		t.Fatalf("campaign missed %d expectations; first: %+v",
			len(r1.Failures), r1.Failures[0].Outcome.ExpectReason)
	}
	for _, mt := range r1.TopoMargins {
		if mt.Margin < 0 {
			t.Errorf("strict axis produced a below-bound scenario (margin %d)", mt.Margin)
		}
	}
}

// TestCampaignCutsetPlacement checks that cut-set-targeted generation aims
// the first fault draws at the pinned graph's minimum vertex cut.
func TestCampaignCutsetPlacement(t *testing.T) {
	c := Campaign{
		Seed: 7, Runs: 30,
		Grid: DefaultGrid(), Probs: DefaultProbs(), MaxInjectors: 3,
		Topology: &TopoAxis{Graph: "bridge:3:4:3", Placement: PlacementCutset},
	}
	cut := map[types.NodeID]bool{3: true, 4: true, 5: true, 6: true}
	sawFault := false
	for i := 0; i < c.Runs; i++ {
		sc := c.Generate(i)
		if sc.Topology == nil {
			t.Fatalf("scenario %d has no topology", i)
		}
		if sc.Topology.Placement != PlacementCutset {
			t.Fatalf("scenario %d placement %q", i, sc.Topology.Placement)
		}
		if sc.Topology.Graph != "bridge:3:4:3" {
			continue // grid point the graph cannot host: complete-graph fallback
		}
		for j, f := range sc.Faults {
			if j < len(cut) && !cut[f.Node] {
				t.Errorf("scenario %d fault %d on node %d, outside the cut", i, j, f.Node)
			}
		}
		if len(sc.Faults) > 0 {
			sawFault = true
		}
	}
	if !sawFault {
		t.Fatal("no faults generated in 30 scenarios")
	}
}

// TestTopologySweep checks the boundary table: deterministic, zero
// violations on the sufficient side of the Theorem 3 boundary, and at least
// one cell where classic BA's connectivity bound refuses a graph the
// degradable spec still holds on.
func TestTopologySweep(t *testing.T) {
	b1, err := TopologySweep(42, 2)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := TopologySweep(42, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b1, b2) {
		t.Fatal("sweeps with equal seeds diverge")
	}
	if b1.BoundViolations != 0 {
		t.Fatalf("%d violations at margin ≥ 0 with f ≤ u", b1.BoundViolations)
	}
	if b1.ClassicRefused == 0 {
		t.Fatal("no classic-refused-degradable-OK cell — the headline row is missing")
	}
	if b1.CellsTotal != len(b1.Cells) || b1.CellsTotal == 0 {
		t.Fatalf("cell accounting: total=%d len=%d", b1.CellsTotal, len(b1.Cells))
	}
	families := map[string]bool{}
	for _, cell := range b1.Cells {
		families[cell.Graph] = true
		if cell.ConnectivityMargin >= 0 && cell.Verdict == "fails" {
			t.Errorf("cell %s/%s/f=%d fails at margin %d",
				cell.Graph, cell.Placement, cell.F, cell.ConnectivityMargin)
		}
	}
	if len(families) < 4 {
		t.Fatalf("only %d graph families in the table", len(families))
	}
}

// TestShrinkReducesTopology checks the shrinker's edge-removal dimension: a
// failing sparse scenario shrinks by deleting graph edges while the node
// count (pinned by the graph) stays put.
func TestShrinkReducesTopology(t *testing.T) {
	sc := Scenario{
		N: 6, M: 1, U: 1, Seed: 11,
		Driver: DriverSequential,
		Faults: []adversary.FaultSpec{{Node: 2, Kind: adversary.KindLie, Value: 2002}},
		// κ=2 = m+u: a lower-bound graph, pinned to LevelFull so the run
		// counts as an expectation failure the shrinker can minimize.
		Topology: &TopoSpec{Graph: "bridge:2:2:2", Placement: PlacementCutset, Loose: true},
		Expect:   Expectation{Level: LevelFull},
	}
	out, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.ExpectationMet {
		t.Fatal("seed scenario unexpectedly met LevelFull")
	}
	shrunk, steps, err := Shrink(sc)
	if err != nil {
		t.Fatal(err)
	}
	if shrunk.ExpectationMet {
		t.Fatal("shrunk scenario no longer fails")
	}
	if shrunk.Scenario.Topology == nil {
		t.Fatal("shrinker dropped the topology")
	}
	if shrunk.Scenario.N != 6 {
		t.Fatalf("shrinker shaved a topology-pinned node count to %d", shrunk.Scenario.N)
	}
	if steps == 0 || len(shrunk.Scenario.Topology.Removed) == 0 {
		t.Fatalf("no edges removed (steps=%d removed=%v)", steps, shrunk.Scenario.Topology.Removed)
	}
	// The shrunk counterexample must replay from its JSON form alone.
	b, err := json.Marshal(shrunk.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	var replay Scenario
	if err := json.Unmarshal(b, &replay); err != nil {
		t.Fatal(err)
	}
	rout, err := replay.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rout.ExpectationMet != shrunk.ExpectationMet || rout.Class != shrunk.Class {
		t.Fatalf("replay diverged: %s/%v vs %s/%v",
			rout.Class, rout.ExpectationMet, shrunk.Class, shrunk.ExpectationMet)
	}
}

// TestTopoCountersOmittedWhenFlat pins report compatibility: a flat
// (complete-graph) scenario serializes with no topology keys at all, so
// historical campaign goldens stay byte-identical.
func TestTopoCountersOmittedWhenFlat(t *testing.T) {
	sc := Scenario{N: 5, M: 1, U: 2, Seed: 1}
	out, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"topology", "topo", "degraded", "forwarded", "hops"} {
		if strings.Contains(string(b), fmt.Sprintf("%q:", key)) {
			t.Errorf("flat outcome JSON contains %q: %s", key, b)
		}
	}
}
