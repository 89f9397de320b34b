package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"degradable/internal/adversary"
	"degradable/internal/obs"
	"degradable/internal/rng"
	"degradable/internal/types"
)

// faultKinds is the pool the generator draws Byzantine behaviours from.
var faultKinds = []adversary.Kind{
	adversary.KindSilent, adversary.KindCrash, adversary.KindLie,
	adversary.KindTwoFaced, adversary.KindRandom,
}

// lieValues is the forged-value pool; two distinct values let colluding
// faults attempt splitting attacks.
var lieValues = []types.Value{2002, 3003}

// GridPoint is one (N, m, u) configuration a campaign sweeps.
type GridPoint struct {
	N int `json:"n"`
	M int `json:"m"`
	U int `json:"u"`
}

// DefaultGrid covers minimum-size and slack systems across m ∈ {0,1,2},
// keeping N small enough that a thousand scenarios stay fast (the protocol
// is exponential in m).
func DefaultGrid() []GridPoint {
	return []GridPoint{
		{N: 4, M: 1, U: 1}, // minimum 1/1 (pure Byzantine agreement)
		{N: 5, M: 1, U: 2}, // the paper's running example, minimum size
		{N: 6, M: 1, U: 2}, // same with one slack node
		{N: 6, M: 1, U: 3}, // deeper degradation reach
		{N: 7, M: 2, U: 2}, // depth-3 relays
		{N: 4, M: 0, U: 2}, // echo-round protocol
		{N: 5, M: 0, U: 3}, // echo-round, wide degraded band
		{N: 7, M: 1, U: 4}, // the §2 seven-node 1/4 trade
	}
}

// DefaultProbs is the injector probability pool, bounded by the §6.1
// experiment's tested drop rates.
func DefaultProbs() []float64 { return []float64{0.05, 0.1, 0.2, 0.3} }

// Campaign sweeps a seeded grid of scenarios and classifies every outcome.
type Campaign struct {
	// Seed derives every scenario (fault placement, injector mix, and all
	// per-message coin flips). Two campaigns with equal Seed and settings
	// produce identical reports.
	Seed int64 `json:"seed"`
	// Runs is the number of scenarios to generate (default 1000).
	Runs int `json:"runs"`
	// Grid lists the (N, m, u) points to sweep (default DefaultGrid).
	Grid []GridPoint `json:"grid,omitempty"`
	// Probs is the injector probability pool (default DefaultProbs).
	Probs []float64 `json:"probs,omitempty"`
	// MaxInjectors bounds each scenario's injector stack (default 3).
	MaxInjectors int `json:"maxInjectors,omitempty"`
	// Crashes, when positive, lets each scenario schedule up to that many
	// crash-recovery events (mid-round kill and restart; see CrashSpec) on
	// fault-free non-sender nodes within the remaining u budget. Zero — the
	// default — generates no crashes and leaves the scenario stream of
	// crash-free campaigns byte-identical to earlier releases.
	Crashes int `json:"crashes,omitempty"`
	// Topology, when non-nil, adds the sparse-graph axis: every generated
	// scenario runs over a graph drawn from this axis (see TopoAxis), with
	// the grid's N replaced by the graph's order and u clamped to the
	// Theorem 3 boundary κ = m+u+1. Nil — the default — keeps the scenario
	// stream of flat campaigns byte-identical to earlier releases.
	Topology *TopoAxis `json:"topology,omitempty"`
	// Async, when non-nil, switches the campaign onto the asynchronous
	// track: every scenario becomes a DriverAsync A-Cast run under a drawn
	// scheduling policy (see AsyncAxis), judged by the spec's D.1/D.2 at
	// the n > 3f tolerance with termination as a verdict, not a
	// requirement. Nil — the
	// default — keeps the scenario stream of synchronous campaigns
	// byte-identical to earlier releases.
	Async *AsyncAxis `json:"async,omitempty"`
	// IncludeInfeasible, when set, makes roughly one scenario in twenty
	// deliberately undersized (N = 2m+u) to exercise parameter rejection.
	IncludeInfeasible bool `json:"includeInfeasible,omitempty"`
	// Shrink, when set, delta-debugs every expectation failure to a
	// locally minimal counterexample before reporting it. Shrinking always
	// replays in process (the reference schedule for cluster campaigns);
	// the recorded repro keeps the campaign's Driver so the original
	// execution environment stays identifiable.
	Shrink bool `json:"shrink,omitempty"`
	// Driver is stamped onto every generated scenario (and hence every
	// failure repro): "", or the replay labels DriverGoroutine and
	// DriverSequential (all three run the reference schedule), or
	// DriverCluster when the campaign runs through a cluster Executor.
	Driver string `json:"driver,omitempty"`
	// Sink, when non-nil, receives one structured verdict event per
	// classified scenario (obs.EvVerdict with the run index as Round).
	Sink obs.Sink `json:"-"`
}

// Names of the campaign's obs counters, in index order. The classification
// counts share their vocabulary with the Class constants; completed counts
// every executed scenario.
const (
	campSpecHeld = iota
	campGracefulOnly
	campViolated
	campInfeasible
	campCompleted
	campExpectationMissed
	numCampStats
)

// campStatNames are the unified-snapshot names of the campaign counters.
var campStatNames = []string{
	"spec_held_total", "graceful_only_total", "violated_total",
	"infeasible_total", "completed_total", "expectation_missed_total",
}

// RegimeTally is one fault-regime row of a campaign report.
type RegimeTally struct {
	Regime       string `json:"regime"`
	Scenarios    int    `json:"scenarios"`
	SpecHeld     int    `json:"specHeld"`
	GracefulOnly int    `json:"gracefulOnly"`
	Violated     int    `json:"violated"`
	Infeasible   int    `json:"infeasible"`
}

// Failure is one scenario that missed its expected verdict, with its shrunk
// counterexample when shrinking is enabled.
type Failure struct {
	Outcome *Outcome `json:"outcome"`
	// Shrunk is the minimized failing outcome (nil when shrinking is off).
	Shrunk *Outcome `json:"shrunk,omitempty"`
	// ShrinkSteps counts the accepted reduction steps.
	ShrinkSteps int `json:"shrinkSteps,omitempty"`
	// ReproCommand replays the (shrunk) counterexample from a shell.
	ReproCommand string `json:"reproCommand"`
	// ReproGo is a copy-pasteable degradable.Agree reproduction.
	ReproGo string `json:"reproGo"`
}

// Report summarizes a campaign.
type Report struct {
	Seed int64 `json:"seed"`
	Runs int   `json:"runs"`
	// Completed counts the scenarios actually executed: equal to Runs
	// unless the campaign was interrupted.
	Completed int `json:"completed"`
	// Interrupted marks a campaign cut short by context cancellation; the
	// tallies cover the Completed prefix and remain deterministic (the
	// same seed replays the same prefix).
	Interrupted  bool        `json:"interrupted,omitempty"`
	Grid         []GridPoint `json:"grid"`
	SpecHeld     int         `json:"specHeld"`
	GracefulOnly int         `json:"gracefulOnly"`
	Violated     int         `json:"violated"`
	Infeasible   int         `json:"infeasible"`
	// Regimes breaks the counts down by fault regime (classic f ≤ m,
	// degraded m < f ≤ u, beyond-u, invalid).
	Regimes []RegimeTally `json:"regimes"`
	// Injections aggregates the injector counters across all scenarios.
	Injections Counters `json:"injections"`
	// TopoMargins breaks the counts down by connectivity margin κ − (m+u+1)
	// when the campaign sweeps a topology axis — the Theorem 3 boundary
	// table: zero Violated is expected at every margin ≥ 0.
	TopoMargins []MarginTally `json:"topoMargins,omitempty"`
	// Async aggregates the asynchronous-track verdicts (termination split,
	// starvation count, safety-violation total) when the campaign ran the
	// async axis; nil for synchronous campaigns.
	Async *AsyncTally `json:"async,omitempty"`
	// Worst retains the most severe outcome (Violated before GracefulOnly
	// before SpecHeld; earliest wins ties), for post-mortems even when the
	// campaign is healthy.
	Worst *Outcome `json:"worst,omitempty"`
	// Failures lists every scenario that missed its expectation.
	Failures []Failure `json:"failures,omitempty"`
	// Obs is the campaign's tallies in the unified snapshot schema — the
	// counter set behind the SpecHeld/GracefulOnly/Violated/Infeasible
	// views above, so repros replay with identical telemetry.
	Obs obs.Snapshot `json:"obs"`
}

// Healthy reports whether the campaign saw no Violated outcome and no missed
// expectation.
func (r *Report) Healthy() bool { return r.Violated == 0 && len(r.Failures) == 0 }

// Run executes the campaign to completion.
func (c Campaign) Run() (*Report, error) { return c.RunContext(context.Background()) }

// RunContext executes the campaign in process, stopping between scenarios
// when ctx is cancelled. An interrupted campaign is not an error: the
// partial report is returned with Interrupted set and the tallies covering
// every scenario that completed, so long chaos runs can be cut short and
// still yield their evidence.
func (c Campaign) RunContext(ctx context.Context) (*Report, error) {
	return c.RunContextWith(ctx, nil)
}

// RunContextWith is RunContext with a pluggable per-scenario executor (nil
// means in process): the cluster runtime passes an Executor that spawns one
// OS process per node, so the same generation, classification, and
// shrinking machinery judges real-network executions.
func (c Campaign) RunContextWith(ctx context.Context, exec Executor) (*Report, error) {
	if c.Runs <= 0 {
		c.Runs = 1000
	}
	if len(c.Grid) == 0 {
		c.Grid = DefaultGrid()
	}
	if len(c.Probs) == 0 {
		c.Probs = DefaultProbs()
	}
	if c.MaxInjectors <= 0 {
		c.MaxInjectors = 3
	}
	for _, gp := range c.Grid {
		if gp.N > int(types.MaxNodeSetID) {
			return nil, fmt.Errorf("chaos: grid point N=%d exceeds the node-set limit", gp.N)
		}
	}
	if c.Topology != nil {
		if err := c.Topology.validate(); err != nil {
			return nil, err
		}
	}

	rep := &Report{Seed: c.Seed, Runs: c.Runs, Grid: c.Grid}
	set := obs.NewCounterSet(campStatNames...)
	margins := map[int]*MarginTally{}
	tallies := map[string]*RegimeTally{}
	order := []string{"classic", "degraded", "beyond-u", "invalid"}
	for _, r := range order {
		tallies[r] = &RegimeTally{Regime: r}
	}

	for i := 0; i < c.Runs; i++ {
		if ctx.Err() != nil {
			rep.Interrupted = true
			break
		}
		sc := c.Generate(i)
		out, err := sc.RunWith(exec)
		if err != nil {
			return nil, fmt.Errorf("chaos: scenario %d: %w", i, err)
		}
		t, ok := tallies[out.Regime]
		if !ok {
			t = &RegimeTally{Regime: out.Regime}
			tallies[out.Regime] = t
			order = append(order, out.Regime)
		}
		t.Scenarios++
		switch out.ClassValue() {
		case SpecHeld:
			set.Inc(campSpecHeld)
			t.SpecHeld++
		case GracefulOnly:
			set.Inc(campGracefulOnly)
			t.GracefulOnly++
		case Violated:
			set.Inc(campViolated)
			t.Violated++
		case Infeasible:
			set.Inc(campInfeasible)
			t.Infeasible++
		}
		if out.Topo != nil {
			mt, ok := margins[out.Topo.Margin]
			if !ok {
				mt = &MarginTally{Margin: out.Topo.Margin}
				margins[out.Topo.Margin] = mt
			}
			mt.Scenarios++
			switch out.ClassValue() {
			case SpecHeld:
				mt.SpecHeld++
			case GracefulOnly:
				mt.GracefulOnly++
			case Violated:
				mt.Violated++
			}
		}
		if out.Async != nil {
			if rep.Async == nil {
				rep.Async = &AsyncTally{}
			}
			if out.Async.Verdict == "NotTerminated" {
				rep.Async.NotTerminated++
				if out.Async.Starved {
					rep.Async.Starved++
				}
			} else {
				rep.Async.Terminated++
			}
			rep.Async.SafetyViolations += out.Async.SafetyViolations
			rep.Async.CertTotal += out.Async.CertTotal
		}
		if c.Sink != nil {
			e := obs.VerdictEvent(out.Condition, out.OK, out.Graceful)
			e.Round = int32(i)
			c.Sink.Emit(e)
		}
		rep.Injections.Add(out.Counters)
		if rep.Worst == nil || worse(out, rep.Worst) {
			rep.Worst = out
		}
		if !out.ExpectationMet {
			set.Inc(campExpectationMissed)
			rep.Failures = append(rep.Failures, c.fail(out))
		}
		set.Inc(campCompleted)
	}
	for _, r := range order {
		if t := tallies[r]; t.Scenarios > 0 {
			rep.Regimes = append(rep.Regimes, *t)
		}
	}
	for _, mt := range margins {
		rep.TopoMargins = append(rep.TopoMargins, *mt)
	}
	sort.Slice(rep.TopoMargins, func(i, j int) bool {
		return rep.TopoMargins[i].Margin < rep.TopoMargins[j].Margin
	})
	// Materialize the obs-backed tallies into the report's view fields.
	rep.Obs = set.Snapshot()
	rep.SpecHeld = int(set.Get(campSpecHeld))
	rep.GracefulOnly = int(set.Get(campGracefulOnly))
	rep.Violated = int(set.Get(campViolated))
	rep.Infeasible = int(set.Get(campInfeasible))
	rep.Completed = int(set.Get(campCompleted))
	return rep, nil
}

// fail packages one expectation failure, shrinking it when configured.
func (c Campaign) fail(out *Outcome) Failure {
	f := Failure{Outcome: out}
	repro := out.Scenario
	if c.Shrink {
		if shrunk, steps, err := Shrink(out.Scenario); err == nil {
			f.Shrunk = shrunk
			f.ShrinkSteps = steps
			repro = shrunk.Scenario
		}
	}
	f.ReproCommand = ReproCommand(repro)
	f.ReproGo = ReproGo(repro)
	return f
}

// worse orders outcomes by severity, preferring missed expectations.
func worse(a, b *Outcome) bool {
	if (!a.ExpectationMet) != (!b.ExpectationMet) {
		return !a.ExpectationMet
	}
	return a.ClassValue().severity() > b.ClassValue().severity()
}

// Generate derives scenario i of the campaign. Every choice flows from one
// per-scenario source so campaigns replay identically at any Runs count —
// and so external executors (the cluster launcher) can regenerate the exact
// scenario sequence without running it. The source is borrowed from the rng
// pool: every draw happens here, and nothing generated keeps it.
func (c Campaign) Generate(i int) Scenario {
	r := rng.Get(mix(c.Seed, int64(i)+0x10001))
	defer rng.Put(r)
	gp := c.Grid[r.Intn(len(c.Grid))]
	// Async track: a wholly different scenario shape (no rounds, no
	// injector stack). The branch sits after the grid draw so both tracks
	// share the per-scenario rng discipline, and runs only when the axis
	// is on, so synchronous campaigns replay their historical scenario
	// streams unchanged.
	if c.Async != nil {
		return c.generateAsync(r, gp)
	}
	// Topology draw (only when the axis is on, so flat campaigns replay
	// their historical scenario streams unchanged): may replace gp.N with
	// the graph's order and clamp gp.U to the Theorem 3 boundary.
	var tp *topoPick
	if c.Topology != nil {
		tp = c.Topology.pick(r, &gp)
	}
	sc := Scenario{
		N: gp.N, M: gp.M, U: gp.U,
		SenderValue: harnessValue,
		Seed:        r.Int63(),
		Driver:      c.Driver,
	}
	if c.IncludeInfeasible && r.Intn(20) == 0 {
		sc.N = 2*gp.M + gp.U // one below the Theorem-2 bound
		return sc
	}

	// Fault count and placement: f ≤ u+1 spans classic, degraded, and one
	// step beyond the promised bounds; the sender is as arming-eligible as
	// any receiver. Cut-set placement reorders the permutation so the fault
	// draws hit the graph's minimum vertex cut first.
	f := r.Intn(gp.U + 2)
	if f > gp.N {
		f = gp.N
	}
	perm := r.Perm(gp.N)
	if tp != nil && tp.placement == PlacementCutset && len(tp.cut) > 0 {
		perm = cutFirst(perm, tp.cut)
	}
	for _, node := range perm[:f] {
		fault := adversary.FaultSpec{
			Node: types.NodeID(node),
			Kind: faultKinds[r.Intn(len(faultKinds))],
		}
		switch fault.Kind {
		case adversary.KindLie, adversary.KindTwoFaced:
			fault.Value = lieValues[r.Intn(len(lieValues))]
		case adversary.KindRandom:
			fault.Value = lieValues[r.Intn(len(lieValues))]
			fault.Seed = r.Int63()
		}
		sc.Faults = append(sc.Faults, fault)
	}

	// Injector stack: 0..MaxInjectors layers. Absence-type injectors may
	// touch fault-free traffic (the §6.1 relaxed model); value corruption
	// is confined to faulty senders' traffic by construction.
	for k := r.Intn(c.MaxInjectors + 1); k > 0; k-- {
		sc.Injectors = append(sc.Injectors, c.generateInjector(r, gp, sc.Faults))
	}

	// Crash schedule: victims drawn from fault-free non-sender nodes, kept
	// within the remaining u budget so the expectation stays judgeable. The
	// extra rng draws happen only when the knob is on, so crash-free
	// campaigns replay their historical scenario streams unchanged.
	if c.Crashes > 0 {
		sc.Crashes = c.generateCrashes(r, gp, sc)
	}
	if tp != nil {
		sc.Topology = &TopoSpec{
			Graph:     tp.def,
			Mode:      tp.mode,
			Placement: tp.placement,
			Loose:     tp.loose,
		}
	}
	return sc
}

// generateCrashes draws scenario sc's crash schedule.
func (c Campaign) generateCrashes(rng *rand.Rand, gp GridPoint, sc Scenario) []CrashSpec {
	// m+1, not core.Params.Depth: drawing the m = 0 echo round would shift the goldens.
	depth := gp.M + 1
	armed := sc.Faulty()
	var pool []types.NodeID
	for _, n := range rng.Perm(gp.N) {
		id := types.NodeID(n)
		if id == sc.Sender || armed.Contains(id) {
			continue
		}
		pool = append(pool, id)
	}
	want := rng.Intn(c.Crashes + 1)
	if budget := gp.U - len(sc.Faults); want > budget {
		want = budget
	}
	if want > len(pool) {
		want = len(pool)
	}
	var crashes []CrashSpec
	for i := 0; i < want; i++ {
		cr := CrashSpec{Node: pool[i], Round: 1 + rng.Intn(depth), Phase: CrashPhaseSent}
		if rng.Intn(2) == 0 {
			cr.Phase = CrashPhaseClosed
		}
		switch rng.Intn(6) {
		case 0:
			cr.Corrupt = CorruptBitFlip
		case 1:
			cr.Corrupt = CorruptTruncate
		case 2:
			if cr.Round >= 2 {
				cr.Corrupt = CorruptStale
			}
		case 3:
			cr.NoRestart = true
		}
		crashes = append(crashes, cr)
	}
	return crashes
}

// generateInjector draws one injector layer.
func (c Campaign) generateInjector(rng *rand.Rand, gp GridPoint, faults []adversary.FaultSpec) Injector {
	prob := func() float64 { return c.Probs[rng.Intn(len(c.Probs))] }
	// Not core.Params.Depth either (N = 2 runs one round): the goldens pin this draw.
	depth := gp.M + 1
	if gp.M < 1 {
		depth = 2
	}
	switch Drop + InjectorKind(rng.Intn(5)) {
	case Drop:
		return Injector{Kind: Drop, P: prob(), Scope: randomScope(rng, faults)}
	case DelayToAbsence:
		return Injector{Kind: DelayToAbsence, P: prob(), Scope: randomScope(rng, faults)}
	case Duplicate:
		return Injector{Kind: Duplicate, P: prob()}
	case CorruptValue:
		return Injector{
			Kind: CorruptValue, P: prob(), Scope: ScopeFaultyOnly,
			Domain: []types.Value{lieValues[rng.Intn(len(lieValues))]},
		}
	default: // Partition
		var a, b []types.NodeID
		for n := 0; n < gp.N; n++ {
			if rng.Intn(2) == 0 {
				a = append(a, types.NodeID(n))
			} else {
				b = append(b, types.NodeID(n))
			}
		}
		if len(a) == 0 || len(b) == 0 {
			// Degenerate split: cut the last node off instead.
			a = []types.NodeID{types.NodeID(gp.N - 1)}
			b = nil
			for n := 0; n < gp.N-1; n++ {
				b = append(b, types.NodeID(n))
			}
		}
		from := 1 + rng.Intn(depth)
		return Injector{
			Kind: Partition, Groups: [][]types.NodeID{a, b},
			FromRound: from, ToRound: from + rng.Intn(depth-from+1),
		}
	}
}

// randomScope picks faulty-only when there are faults to scope to, otherwise
// anywhere (a faulty-only injector with no faults would be a no-op layer).
func randomScope(rng *rand.Rand, faults []adversary.FaultSpec) Scope {
	if len(faults) > 0 && rng.Intn(2) == 0 {
		return ScopeFaultyOnly
	}
	return ScopeAnywhere
}
