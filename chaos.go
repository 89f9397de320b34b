package degradable

import (
	"context"
	"encoding/json"

	"degradable/internal/chaos"
	"degradable/internal/cluster"
)

// Chaos-engine vocabulary, re-exported so external callers can drive seeded
// fault-injection campaigns through the facade (the internal import path is
// not available to them).
type (
	// ChaosCampaign sweeps a seeded grid of fault-injection scenarios; see
	// internal/chaos for the expectation model.
	ChaosCampaign = chaos.Campaign
	// ChaosReport is a campaign's outcome classification.
	ChaosReport = chaos.Report
	// ChaosScenario is one runnable injection scenario.
	ChaosScenario = chaos.Scenario
	// ChaosOutcome is one scenario's judged result.
	ChaosOutcome = chaos.Outcome
	// ChaosFault arms one node inside a ChaosScenario.
	ChaosFault = chaos.FaultSpec
	// ChaosInjector is one channel-level fault-injection layer.
	ChaosInjector = chaos.Injector
	// ChaosCrash schedules one mid-round kill (and optional checkpoint
	// corruption) for a cluster-driver scenario.
	ChaosCrash = chaos.CrashSpec
	// ChaosTopoAxis switches a campaign's topology dimension on: scenarios
	// run over sparse graphs drawn from it instead of the complete wire.
	ChaosTopoAxis = chaos.TopoAxis
	// ChaosTopoSpec pins one scenario's communication graph and fault
	// placement; it round-trips through the scenario's JSON.
	ChaosTopoSpec = chaos.TopoSpec
	// ChaosTopoBench is the Theorem 3 connectivity-boundary table that
	// degradable chaos -topo-sweep writes.
	ChaosTopoBench = chaos.TopoBench
	// ChaosGridPoint is one (N, M, U) sweep point of a campaign grid.
	ChaosGridPoint = chaos.GridPoint
	// ChaosMarginTally is one connectivity-margin row of a campaign report.
	ChaosMarginTally = chaos.MarginTally
	// ChaosAsyncAxis switches a campaign onto the asynchronous track:
	// scenarios become A-Cast runs under drawn scheduling policies, judged by
	// the spec's D.1/D.2 at the n > 3f tolerance with termination as a
	// verdict.
	ChaosAsyncAxis = chaos.AsyncAxis
	// ChaosAsyncTally is the asynchronous block of a campaign report: the
	// Terminated/NotTerminated verdict split, starvation count, and the
	// safety-violation total (zero for any within-tolerance campaign).
	ChaosAsyncTally = chaos.AsyncTally
	// ChaosAsyncBench is the degradable chaos -async-sweep document: FIFO-versus-
	// adversarial scheduling over identical seeded A-Cast workloads.
	ChaosAsyncBench = chaos.AsyncBench
)

// ChaosTopologySweep runs the Theorem 3 boundary table: every golden graph
// family × fault placement × fault count, seeded and deterministic. The
// returned bench reports zero BoundViolations when every cell at
// connectivity margin ≥ 0 with f ≤ u held the degradable spec.
func ChaosTopologySweep(seed int64, runsPerCell int) (*ChaosTopoBench, error) {
	return chaos.TopologySweep(seed, runsPerCell)
}

// ChaosAsyncSweep runs the asynchronous scheduling benchmark: identical
// seeded fault-free A-Cast workloads under FIFO and adversarial scheduling,
// reporting deliveries-to-decision percentiles and certificate-traffic
// totals per scheduler. Safety violations in any row are a bug: the quorum
// argument covers every schedule.
func ChaosAsyncSweep(seed int64, runs int) (*ChaosAsyncBench, error) {
	return chaos.AsyncSweep(seed, runs)
}

// Chaos runs a seeded fault-injection campaign. cfg seeds the sweep grid:
// when the campaign does not name its own grid, the campaign hammers cfg's
// (N, M, U) point alone. Campaign defaults (runs, probabilities, injector
// depth) apply as documented on ChaosCampaign.
func Chaos(cfg Config, c ChaosCampaign) (*ChaosReport, error) {
	return ChaosContext(context.Background(), cfg, c)
}

// ChaosContext is Chaos with cancellation: the campaign stops between
// scenarios when ctx is cancelled and returns its partial report with
// Interrupted set — cancellation is not an error, so long campaigns can be
// cut short without losing the tallies gathered so far.
func ChaosContext(ctx context.Context, cfg Config, c ChaosCampaign) (*ChaosReport, error) {
	if len(c.Grid) == 0 && cfg.N > 0 {
		c.Grid = []chaos.GridPoint{{N: cfg.N, M: cfg.M, U: cfg.U}}
	}
	return c.RunContext(ctx)
}

// ChaosReplay re-runs one scenario — typically a shrunk counterexample — and
// returns its judged outcome. Equal scenarios (same seed included) replay
// byte-identically in process. A scenario whose Driver field says "cluster"
// replays across real OS processes through the cluster launcher; the
// calling binary must have invoked ClusterHijack (per-node injector seeds
// make cross-process coin flips differ from the in-process surrogate, but
// the judged conditions are the same).
func ChaosReplay(sc ChaosScenario) (*ChaosOutcome, error) {
	if sc.Driver == chaos.DriverCluster {
		return sc.RunWith(cluster.Executor(context.Background(), 0))
	}
	return sc.Run()
}

// ChaosShrink delta-debugs a scenario that misses its expected verdict down
// to a locally minimal counterexample that still misses it, returning the
// minimal outcome and the number of accepted reduction steps. A scenario
// that meets its expectation shrinks to itself in zero steps.
func ChaosShrink(sc ChaosScenario) (*ChaosOutcome, int, error) { return chaos.Shrink(sc) }

// ChaosScenarioFromJSON decodes a scenario from the canonical JSON form the
// chaos CLI and the shrinker's reproductions emit.
func ChaosScenarioFromJSON(data []byte) (ChaosScenario, error) {
	var sc ChaosScenario
	err := json.Unmarshal(data, &sc)
	return sc, err
}
