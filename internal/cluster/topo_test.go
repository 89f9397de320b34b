package cluster

import (
	"context"
	"testing"
	"time"

	"degradable/internal/adversary"
	"degradable/internal/chaos"
)

// TestTopologyScenarioAcrossDrivers runs one sparse-graph scenario through
// real per-node OS processes once, then through the in-process executor
// under each recorded mode label, and checks every in-process run agrees
// with the cluster run: same verdict, same degradation count, same
// physical-traffic totals. The topology channel is deterministic per
// message, so per-node egress routing (cluster) must reproduce exactly what
// the single global channel (in-process) does, and the mode label must
// select no code.
func TestTopologyScenarioAcrossDrivers(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	sc := chaos.Scenario{
		N: 9, M: 1, U: 2, Seed: 13,
		Faults: []adversary.FaultSpec{
			{Node: 3, Kind: adversary.KindLie, Value: 2002},
			{Node: 5, Kind: adversary.KindSilent},
		},
		Topology: &chaos.TopoSpec{Graph: "harary:4:9"},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cluSC := sc
	cluSC.Driver = chaos.DriverCluster
	cluOut, err := cluSC.RunWith(Executor(ctx, 30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if cluOut.Topo == nil || cluOut.Topo.Kappa != 4 {
		t.Fatalf("cluster outcome topo report: %+v", cluOut.Topo)
	}
	if cluOut.ClassValue() != chaos.SpecHeld {
		t.Fatalf("sparse cluster run: %s (%s)", cluOut.Class, cluOut.Reason)
	}
	for _, mode := range []string{chaos.TopoModeTransport, chaos.TopoModeRouted} {
		t.Run(mode, func(t *testing.T) {
			inSC := sc
			topo := *sc.Topology
			topo.Mode = mode
			inSC.Topology = &topo
			inOut, err := inSC.Run()
			if err != nil {
				t.Fatal(err)
			}
			if inOut.Class != cluOut.Class || inOut.ExpectationMet != cluOut.ExpectationMet {
				t.Fatalf("verdicts differ: in-process %s/%v cluster %s/%v",
					inOut.Class, inOut.ExpectationMet, cluOut.Class, cluOut.ExpectationMet)
			}
			if inOut.Messages != cluOut.Messages {
				t.Fatalf("messages differ: %d vs %d", inOut.Messages, cluOut.Messages)
			}
			// On a sparse graph most messages cross several links, so a hop
			// total at or below the message count means some node's hops
			// went uncounted.
			if inOut.Counters.Hops <= inOut.Messages {
				t.Fatalf("in-process hops %d should exceed messages %d", inOut.Counters.Hops, inOut.Messages)
			}
			if inOut.Counters.Degraded != cluOut.Counters.Degraded || inOut.Counters.Hops != cluOut.Counters.Hops {
				t.Fatalf("topology counters differ: in-process %+v cluster %+v",
					inOut.Counters, cluOut.Counters)
			}
		})
	}
}
