package chaos

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"degradable/internal/adversary"
	"degradable/internal/topology"
	"degradable/internal/types"
)

// resetMemo empties the process-wide graph memo, so the next run analyses
// its graph from scratch.
func resetMemo() { topology.Shared = topology.NewMemo() }

// outcomeJSON runs sc and returns its Outcome as JSON, Topo counters
// included.
func outcomeJSON(t *testing.T, sc Scenario) []byte {
	t.Helper()
	out, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestColdMemoMatchesWarm runs every sweep family × fault placement ×
// f ∈ {1, 2} twice: once with the memo emptied before the run, once against
// a single memo that every earlier scenario on the graph has already
// warmed. The outcomes must be byte-identical: nothing a run does may leak
// into the shared analysis.
func TestColdMemoMatchesWarm(t *testing.T) {
	var scs []Scenario
	for _, fam := range sweepFamilies() {
		an, err := (&TopoSpec{Graph: fam.def}).analyze()
		if err != nil {
			t.Fatal(err)
		}
		for _, placement := range []string{PlacementUniform, PlacementCutset} {
			for f := 1; f <= 2; f++ {
				rng := rand.New(rand.NewSource(int64(len(scs) + 1)))
				scs = append(scs, Scenario{
					N: an.N, M: 1, U: 2,
					SenderValue: harnessValue,
					Seed:        rng.Int63(),
					Driver:      DriverSequential,
					Faults:      sweepFaults(rng, an.N, f, placement, an.Cut()),
					Topology: &TopoSpec{
						Graph: fam.def, Placement: placement, Loose: fam.loose,
					},
				})
			}
		}
	}
	cold := make([][]byte, len(scs))
	for i, sc := range scs {
		resetMemo()
		cold[i] = outcomeJSON(t, sc)
	}
	resetMemo()
	degraded := false
	for i, sc := range scs {
		warm := outcomeJSON(t, sc)
		if !bytes.Equal(warm, cold[i]) {
			t.Errorf("scenario %d (%s %s): warm outcome differs\ncold %s\nwarm %s",
				i, sc.Topology.Graph, sc.Topology.Placement, cold[i], warm)
		}
		degraded = degraded || bytes.Contains(warm, []byte(`"degraded":`))
	}
	if !degraded {
		t.Error("no scenario degraded a delivery: the comparison never saw a corrupt relay")
	}
}

// TestMemoHammer has 8 goroutines call Report, NewChannel and Run on one
// graph at once, starting from an empty memo: every goroutine must see the
// outcome a lone run sees.
func TestMemoHammer(t *testing.T) {
	sc := Scenario{
		N: 9, M: 1, U: 2, Seed: 5,
		Driver: DriverSequential,
		Faults: []adversary.FaultSpec{
			{Node: 3, Kind: adversary.KindLie, Value: 2002},
			{Node: 6, Kind: adversary.KindSilent},
		},
		Topology: &TopoSpec{Graph: "harary:4:9", Placement: PlacementCutset},
	}
	want := outcomeJSON(t, sc)
	resetMemo()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if _, err := sc.Topology.Report(sc.N, sc.M, sc.U, sc.F()); err != nil {
				t.Error(err)
				return
			}
			ch, err := sc.Topology.NewChannel(sc.N, sc.M, sc.U, sc.Faults, sc.Faulty())
			if err != nil {
				t.Error(err)
				return
			}
			if got, ok := ch.Deliver(types.Message{From: 0, To: 4, Value: 7}); !ok || got.Value != 7 {
				t.Errorf("worker %d: 0→4 delivered %v, %v", w, got.Value, ok)
			}
			out, err := sc.Run()
			if err != nil {
				t.Error(err)
				return
			}
			got, err := json.Marshal(out)
			if err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(got, want) {
				t.Errorf("worker %d: outcome differs from a lone run\nwant %s\ngot  %s", w, want, got)
			}
		}(w)
	}
	wg.Wait()
}

// TestCampaignRejectsUnbuildableGraph pins the axis validation: a graph
// definition that parses but cannot be built fails the campaign, whether
// pinned or in the draw pool, instead of silently running flat scenarios.
func TestCampaignRejectsUnbuildableGraph(t *testing.T) {
	for _, axis := range []*TopoAxis{
		{Graph: "gnp:9:0.05:1"},
		{Families: []string{"harary:4:9", "gnp:9:0.05:1"}},
	} {
		rep, err := Campaign{Seed: 11, Runs: 20, Topology: axis}.Run()
		if err == nil || !strings.Contains(err.Error(), "no connected graph") {
			t.Errorf("axis %+v: report %v, err %v; want the gnp build error", axis, rep, err)
		}
	}
}
