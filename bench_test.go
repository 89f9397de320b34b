package degradable_test

import (
	"fmt"
	"testing"

	degradable "degradable"
	"degradable/internal/core"
	"degradable/internal/harness"
	"degradable/internal/protocol/om"
	"degradable/internal/runner"
	"degradable/internal/topology"
	"degradable/internal/transport"
	"degradable/internal/types"
	"degradable/internal/vote"
)

// ---------------------------------------------------------------------------
// One benchmark per paper table/figure: each regenerates the experiment via
// the harness (the same code `degradable experiments` uses) and fails if any of the
// paper's qualitative claims stop holding.
// ---------------------------------------------------------------------------

func benchExperiment(b *testing.B, run func(int64) (*harness.Result, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := run(42)
		if err != nil {
			b.Fatal(err)
		}
		if !res.AllOK() {
			b.Fatalf("%s: %s", res.ID, res.FailedChecks())
		}
	}
}

// BenchmarkTableMinNodes regenerates the §2 minimum-nodes table (E1).
func BenchmarkTableMinNodes(b *testing.B) { benchExperiment(b, harness.MinNodesTable) }

// BenchmarkTradeoffSeven regenerates the 7-node trade-off example (E2).
func BenchmarkTradeoffSeven(b *testing.B) { benchExperiment(b, harness.TradeoffSeven) }

// BenchmarkFig2Scenarios regenerates Figure 2's lower-bound scenarios (E3).
func BenchmarkFig2Scenarios(b *testing.B) { benchExperiment(b, harness.Fig2Scenarios) }

// BenchmarkFig1Channels regenerates the Figure 1 channel comparison (E4).
func BenchmarkFig1Channels(b *testing.B) { benchExperiment(b, harness.Fig1Channels) }

// BenchmarkConnectivity regenerates the Theorem 3 connectivity sweep (E5).
func BenchmarkConnectivity(b *testing.B) { benchExperiment(b, harness.ConnectivitySweep) }

// BenchmarkComplexity regenerates the message/round complexity table (E6).
func BenchmarkComplexity(b *testing.B) { benchExperiment(b, harness.ComplexityTable) }

// BenchmarkClockSync regenerates the §6 degradable clock-sync table (E7).
func BenchmarkClockSync(b *testing.B) { benchExperiment(b, harness.ClockSyncTable) }

// BenchmarkRelaxedTimeout regenerates the §6.1 relaxed-model table (E8).
func BenchmarkRelaxedTimeout(b *testing.B) { benchExperiment(b, harness.RelaxedTimeoutTable) }

// BenchmarkBhandari regenerates the §2 interactive-consistency boundary (E9).
func BenchmarkBhandari(b *testing.B) { benchExperiment(b, harness.BhandariTable) }

// BenchmarkWitnessClocks regenerates the §6.2 witness-clock example (E10).
func BenchmarkWitnessClocks(b *testing.B) { benchExperiment(b, harness.WitnessClockTable) }

// BenchmarkAblations regenerates the voting-rule ablation table (E11).
func BenchmarkAblations(b *testing.B) { benchExperiment(b, harness.AblationTable) }

// BenchmarkChaosCampaign measures a 200-scenario seeded fault-injection
// sweep across the default grid (a scaled-down E16) and fails if any
// scenario violates the spec.
func BenchmarkChaosCampaign(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := degradable.Chaos(degradable.Config{}, degradable.ChaosCampaign{Seed: 42, Runs: 200})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Healthy() {
			b.Fatalf("campaign unhealthy: %d violated, %d failures", rep.Violated, len(rep.Failures))
		}
	}
}

// ---------------------------------------------------------------------------
// Protocol micro-benchmarks: cost of a single agreement instance across the
// (N, m, u) grid, for the paper's protocol and both baselines.
// ---------------------------------------------------------------------------

func benchAgree(b *testing.B, p runner.Protocol) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in := runner.Instance{Protocol: p, SenderValue: 42}
		_, verdict, err := in.Run()
		if err != nil {
			b.Fatal(err)
		}
		if !verdict.OK {
			b.Fatalf("verdict: %s", verdict.Reason)
		}
	}
}

// BenchmarkBYZ measures one fault-free BYZ(m,m) run per (N, m, u) point.
func BenchmarkBYZ(b *testing.B) {
	for _, cfg := range []core.Params{
		{N: 5, M: 1, U: 2},
		{N: 7, M: 1, U: 4},
		{N: 7, M: 2, U: 2},
		{N: 10, M: 2, U: 5},
		{N: 10, M: 3, U: 3},
	} {
		cfg := cfg
		b.Run(fmt.Sprintf("N%d_m%d_u%d", cfg.N, cfg.M, cfg.U), func(b *testing.B) {
			benchAgree(b, cfg)
		})
	}
}

// BenchmarkOM measures the OM(m) baseline at matching sizes.
func BenchmarkOM(b *testing.B) {
	for _, cfg := range []om.Params{
		{N: 4, M: 1},
		{N: 7, M: 2},
		{N: 10, M: 3},
	} {
		cfg := cfg
		b.Run(fmt.Sprintf("N%d_m%d", cfg.N, cfg.M), func(b *testing.B) {
			benchAgree(b, cfg)
		})
	}
}

// BenchmarkAgreeWithFaults measures agreement under an active adversary.
func BenchmarkAgreeWithFaults(b *testing.B) {
	b.ReportAllocs()
	cfg := degradable.Config{N: 7, M: 1, U: 4}
	faults := []degradable.Fault{
		{Node: 3, Kind: degradable.FaultLie, Value: 9},
		{Node: 4, Kind: degradable.FaultSilent},
		{Node: 5, Kind: degradable.FaultTwoFaced, Value: 9},
	}
	for i := 0; i < b.N; i++ {
		res, err := degradable.Agree(cfg, 42, faults...)
		if err != nil {
			b.Fatal(err)
		}
		if !res.OK {
			b.Fatal(res.Reason)
		}
	}
}

// BenchmarkVote measures the VOTE primitive.
func BenchmarkVote(b *testing.B) {
	vals := make([]types.Value, 32)
	for i := range vals {
		vals[i] = types.Value(i % 3)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		vote.Vote(20, vals)
	}
}

// BenchmarkTransportDeliver measures a routed delivery over disjoint paths.
func BenchmarkTransportDeliver(b *testing.B) {
	g, err := topology.Harary(4, 9)
	if err != nil {
		b.Fatal(err)
	}
	routes, err := topology.NewRoutes(g, 4)
	if err != nil {
		b.Fatal(err)
	}
	ch, err := transport.New(routes, 1, 2, map[types.NodeID]transport.RelayCorruptor{
		5: transport.FlipTo(9),
	}, true)
	if err != nil {
		b.Fatal(err)
	}
	m := types.Message{From: 0, To: 4, Value: 42}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := ch.Deliver(m); !ok {
			b.Fatal("dropped")
		}
	}
}

// BenchmarkDisjointPaths measures path extraction (done once per graph and
// path budget in practice: topology.Memo keeps the route table).
func BenchmarkDisjointPaths(b *testing.B) {
	g, err := topology.Harary(6, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := g.DisjointPaths(0, 8, 6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNodeBudgets regenerates the SM/OM/degradable comparison (E12).
func BenchmarkNodeBudgets(b *testing.B) { benchExperiment(b, harness.NodeBudgetTable) }

// BenchmarkReliability regenerates the Monte-Carlo safety table (E13).
func BenchmarkReliability(b *testing.B) { benchExperiment(b, harness.ReliabilityTable) }

// BenchmarkApprox regenerates the degradable approximate agreement table (E14).
func BenchmarkApprox(b *testing.B) { benchExperiment(b, harness.ApproxTable) }

// BenchmarkPipeline regenerates the stateful pipeline table (E15).
func BenchmarkPipeline(b *testing.B) { benchExperiment(b, harness.PipelineTable) }
