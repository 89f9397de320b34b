package chaos

import (
	"encoding/json"
	"fmt"
	"maps"
	"reflect"
	"sync"
	"testing"

	"degradable/internal/adversary"
	"degradable/internal/core"
	"degradable/internal/round"
	"degradable/internal/runner"
	"degradable/internal/types"
)

// freshProcess is the oracle for inProcess's synchronous track: the same
// run assembled from nothing — strategies, a fresh honest complement, the
// Byzantine wrappers, the channel and a new engine — by runner.Instance.
func freshProcess(sc Scenario) (*ExecOutcome, error) {
	if sc.Driver == DriverAsync {
		return runAsync(sc)
	}
	strategies := make(map[types.NodeID]adversary.Strategy, sc.F())
	for _, f := range sc.Faults {
		s, err := f.Strategy(sc.N)
		if err != nil {
			return nil, err
		}
		strategies[f.Node] = s
	}
	for _, cr := range sc.Crashes {
		strategies[cr.Node] = adversary.Crash{After: cr.Round}
	}
	eo := &ExecOutcome{}
	in := runner.Instance{
		Protocol:    core.Params{N: sc.N, M: sc.M, U: sc.U, Sender: sc.Sender},
		SenderValue: sc.SenderValue,
		Strategies:  strategies,
	}
	var topo TopoChannel
	if sc.Topology != nil {
		var err error
		if topo, err = sc.Topology.NewChannel(sc.N, sc.M, sc.U, sc.Faults, sc.Faulty()); err != nil {
			return nil, err
		}
	}
	var inj round.Expander
	if len(sc.Injectors) > 0 {
		ch, err := buildChannel(sc.Injectors, sc.Faulty(), sc.Seed, &eo.Counters)
		if err != nil {
			return nil, err
		}
		inj = ch
		in.Channel = ch
	}
	if topo != nil {
		in.Channel = ComposeEgress(inj, topo)
	}
	res, err := in.Execute()
	if err != nil {
		return nil, err
	}
	eo.Decisions = res.Decisions
	eo.Messages = res.Messages
	eo.Delivered = res.Delivered
	if topo != nil {
		AddTopoStats(&eo.Counters, topo.Stats())
	}
	return eo, nil
}

// capture wraps exec so the raw outcome RunWith judged is kept in *dst.
func capture(exec Executor, dst **ExecOutcome) Executor {
	return func(sc Scenario) (*ExecOutcome, error) {
		eo, err := exec(sc)
		*dst = eo
		return eo, err
	}
}

// warmCampaigns interleaves the seed-42 flat, harary:4:9 cut-set, crash and
// infeasible campaigns scenario by scenario, so consecutive runs switch
// shape, fault set and channel.
func warmCampaigns(runs int) []Scenario {
	base := Campaign{Seed: 42, Grid: DefaultGrid(), Probs: DefaultProbs(), MaxInjectors: 3}
	topo := base
	topo.Grid = []GridPoint{{N: 9, M: 1, U: 2}}
	topo.Topology = &TopoAxis{Graph: "harary:4:9", Placement: PlacementCutset}
	crash := base
	crash.Crashes = 2
	infeasible := base
	infeasible.IncludeInfeasible = true
	var scs []Scenario
	for i := 0; i < runs; i++ {
		for _, c := range []Campaign{base, topo, crash, infeasible} {
			scs = append(scs, c.Generate(i))
		}
	}
	return scs
}

// TestWarmMatchesFresh holds the warm executor to the fresh oracle on every
// scenario of four interleaved seed-42 campaigns: the same decisions,
// traffic and injection counters, and the same judged outcome. It also
// checks the order is not vacuous: some warm instance does run a shape
// right after a run of it with a different fault set.
func TestWarmMatchesFresh(t *testing.T) {
	scs := warmCampaigns(250)
	last := map[core.Params]string{}
	refaulted := 0
	for i, sc := range scs {
		var warm, fresh *ExecOutcome
		got, err := sc.RunWith(capture(inProcess, &warm))
		if err != nil {
			t.Fatalf("scenario %d: %v", i, err)
		}
		want, err := sc.RunWith(capture(freshProcess, &fresh))
		if err != nil {
			t.Fatalf("scenario %d: oracle: %v", i, err)
		}
		if !reflect.DeepEqual(warm, fresh) {
			t.Fatalf("scenario %d (%+v):\nwarm  %+v\nfresh %+v", i, sc, warm, fresh)
		}
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		if string(gj) != string(wj) {
			t.Fatalf("scenario %d: outcome\n%s\nwant\n%s", i, gj, wj)
		}
		if warm == nil {
			continue // infeasible: rejected before execution
		}
		shape := core.Params{N: sc.N, M: sc.M, U: sc.U, Sender: sc.Sender}
		faults := fmt.Sprint(sc.Faults, sc.Crashes)
		if prev, ok := last[shape]; ok && prev != faults {
			refaulted++
		}
		last[shape] = faults
	}
	if refaulted == 0 {
		t.Fatal("no shape ran twice with different fault sets")
	}
}

// TestHeldOutcomeKeepsDecisions runs a second scenario on the same shape
// while the first one's raw outcome is still held: the outcome must not
// alias the warm instance it ran on.
func TestHeldOutcomeKeepsDecisions(t *testing.T) {
	first := Scenario{N: 5, M: 1, U: 2, SenderValue: 1001}
	held, err := inProcess(first)
	if err != nil {
		t.Fatal(err)
	}
	want := maps.Clone(held.Decisions)
	second := first
	second.SenderValue = 7
	second.Faults = []adversary.FaultSpec{{Node: 2, Kind: adversary.KindLie, Value: 9}}
	if _, err := inProcess(second); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(held.Decisions, want) {
		t.Fatalf("held decisions changed to %v, want %v", held.Decisions, want)
	}
}

// TestWarmConcurrentRuns runs mixed-shape scenarios from four goroutines at
// once and requires the outcomes of a sequential pass: a warm instance is
// never shared between two runs in flight.
func TestWarmConcurrentRuns(t *testing.T) {
	scs := warmCampaigns(40)
	want := make([]string, len(scs))
	for i, sc := range scs {
		out, err := sc.Run()
		if err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(out)
		want[i] = string(b)
	}
	const workers = 4
	got := make([]string, len(scs))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker runs every scenario, starting at its own offset,
			// and keeps the outcomes of its share.
			for k := range scs {
				i := (k + w*len(scs)/workers) % len(scs)
				out, err := scs[i].Run()
				if err != nil {
					errs[w] = err
					return
				}
				if i%workers == w {
					b, _ := json.Marshal(out)
					got[i] = string(b)
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := range scs {
		if got[i] != want[i] {
			t.Fatalf("scenario %d: concurrent outcome\n%s\nwant\n%s", i, got[i], want[i])
		}
	}
}
