package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	degradable "degradable"
	"degradable/internal/chaos"
	"degradable/internal/cliflags"
	"degradable/internal/obs"
	"degradable/internal/stats"
)

// chaosFlags runs seeded fault-injection campaigns against the
// m/u-degradable agreement protocol and classifies every scenario outcome
// (SpecHeld, GracefulOnly, Violated, Infeasible). Campaigns are fully
// deterministic: equal seeds and settings produce byte-identical reports.
//
//	degradable chaos -seed 42 -runs 1000                # sweep the default grid
//	degradable chaos -seed 42 -grid 5:1:2,7:2:2 -json   # pinned grid, JSON report
//	degradable chaos -replay '<scenario json>'          # re-run one counterexample
//	degradable chaos -graph harary:4:9 -placement cutset # campaign over a sparse graph
//	degradable chaos -topo-sweep topo.json              # Theorem 3 boundary table
//	degradable chaos -async -runs 500                   # asynchronous A-Cast campaign
//	degradable chaos -async -sched adversarial,starve   # pin the scheduler pool
//	degradable chaos -async-sweep async.json            # FIFO vs adversarial benchmark
//
// Grid syntax: comma-separated n:m:u triples. With -shrink, every scenario
// that misses its expected verdict is delta-debugged to a locally minimal
// counterexample and rendered as a copy-pasteable reproduction. -replay
// exits non-zero when the scenario misses its expectation, so shrunk
// counterexamples keep failing when replayed. A scenario's JSON carries its
// whole crash schedule ("crashes": mid-round kills, restarts, checkpoint
// corruption), so kill/restart counterexamples replay deterministically too:
//
//	degradable chaos -replay '{"n":5,"m":1,"u":2,"seed":11,"driver":"cluster","crashes":[{"node":2,"round":2,"phase":"sent"}]}'
func chaosFlags(fs *flag.FlagSet) func(io.Writer) error {
	var (
		seed       = fs.Int64("seed", 1, "campaign seed (drives every scenario and coin flip)")
		runs       = fs.Int("runs", 1000, "number of scenarios to generate")
		grid       = fs.String("grid", "", "grid points as n:m:u, comma separated (default: built-in grid)")
		maxInj     = fs.Int("max-injectors", 3, "maximum injector layers per scenario")
		infeasible = fs.Bool("infeasible", false, "mix in deliberately undersized (N = 2m+u) scenarios")
		shrink     = fs.Bool("shrink", true, "shrink expectation failures to minimal counterexamples")
		asJSON     = fs.Bool("json", false, "emit the full report as JSON")
		replay     = fs.String("replay", "", "replay one scenario (JSON) instead of running a campaign")
		graphDef   = cliflags.Graph(fs)
		placement  = cliflags.Placement(fs)
		topoSweep  = fs.String("topo-sweep", "", "write the Theorem 3 topology boundary table to this path and exit")
		topoRuns   = fs.Int("topo-runs", 4, "seeded runs per topology-sweep cell")
		async      = fs.Bool("async", false, "run the campaign on the asynchronous track: A-Cast under drawn scheduling policies, D.1/D.2 at the n > 3f tolerance judged under every schedule")
		sched      = fs.String("sched", "", "scheduling-policy pool for -async, comma separated (fifo, reorder, delay[:K], adversarial, starve; default: all)")
		asyncSweep = fs.String("async-sweep", "", "write the FIFO-vs-adversarial scheduling benchmark to this path and exit")
		asyncRuns  = fs.Int("async-runs", 200, "seeded runs per scheduler in the -async-sweep benchmark")
		tracePath  = cliflags.Trace(fs)
	)
	return func(out io.Writer) error {
		// Campaign's zero values mean "use the default"; on the command line a
		// count below 1 is a mistake, not a request for the default.
		for _, c := range []struct {
			name string
			v    int
		}{{"runs", *runs}, {"max-injectors", *maxInj}, {"topo-runs", *topoRuns}, {"async-runs", *asyncRuns}} {
			if c.v < 1 {
				return fmt.Errorf("-%s %d: want at least 1", c.name, c.v)
			}
		}
		if *replay != "" {
			return replayScenario(out, *replay, *asJSON, *shrink)
		}
		if *topoSweep != "" {
			return runTopoSweep(out, *topoSweep, *seed, *topoRuns)
		}
		if *asyncSweep != "" {
			return runAsyncSweep(out, *asyncSweep, *seed, *asyncRuns)
		}

		c := degradable.ChaosCampaign{
			Seed: *seed, Runs: *runs,
			MaxInjectors:      *maxInj,
			IncludeInfeasible: *infeasible,
			Shrink:            *shrink,
		}
		var err error
		if c.Grid, err = parseGrid(*grid); err != nil {
			return err
		}
		if c.Topology, err = parseTopoAxis(*graphDef, *placement); err != nil {
			return err
		}
		if c.Async, err = parseAsyncAxis(*async, *sched); err != nil {
			return err
		}
		if c.Async != nil && c.Topology != nil {
			return fmt.Errorf("-async and -graph are mutually exclusive: the asynchronous track has no topology dimension")
		}
		var tracer *obs.Tracer
		if *tracePath != "" {
			// One verdict event per scenario: size the ring to hold the whole
			// campaign so the JSONL dump is complete, not a tail.
			tracer = obs.NewTracer(*runs)
			c.Sink = tracer
		}
		// SIGINT cancels between scenarios: the partial tallies are still
		// printed (marked interrupted) rather than thrown away.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		rep, err := degradable.ChaosContext(ctx, degradable.Config{}, c)
		if err != nil {
			return err
		}
		if tracer != nil {
			// Dump before the health checks so the event stream survives an
			// unhealthy campaign — that is exactly when it is most wanted.
			if err := obs.WriteJSONLFile(*tracePath, tracer.Events()); err != nil {
				return err
			}
			fmt.Fprintf(out, "chaos: wrote %d events to %s\n", len(tracer.Events()), *tracePath)
		}
		if *asJSON {
			enc := json.NewEncoder(out)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rep); err != nil {
				return err
			}
		} else {
			writeReport(out, rep)
		}
		if !rep.Healthy() {
			return fmt.Errorf("campaign unhealthy: %d violated, %d missed expectations",
				rep.Violated, len(rep.Failures))
		}
		if rep.Interrupted {
			return fmt.Errorf("interrupted after %d/%d scenarios (partial tallies above)",
				rep.Completed, rep.Runs)
		}
		return nil
	}
}

// replayScenario re-runs one scenario and reports its judged outcome,
// failing when the scenario misses its expectation. With shrink enabled, a
// failing scenario is first minimized and its reproduction rendered.
func replayScenario(out io.Writer, encoded string, asJSON bool, shrink bool) error {
	sc, err := degradable.ChaosScenarioFromJSON([]byte(encoded))
	if err != nil {
		return fmt.Errorf("bad -replay scenario: %w", err)
	}
	o, err := degradable.ChaosReplay(sc)
	if err != nil {
		return err
	}
	if asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(o); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(out, "scenario: N=%d m=%d u=%d f=%d injectors=%d seed=%d\n",
			sc.N, sc.M, sc.U, sc.F(), len(sc.Injectors), sc.Seed)
		if tp := o.Topo; tp != nil {
			pl := tp.Placement
			if pl == "" {
				pl = "-"
			}
			fmt.Fprintf(out, "topology: %s mode=%s placement=%s kappa=%d margin=%+d classicBA=%v\n",
				tp.Graph, tp.Mode, pl, tp.Kappa, tp.Margin, tp.ClassicBAOK)
		}
		cond := o.Condition
		if cond == "" {
			cond = "-"
		}
		fmt.Fprintf(out, "regime %s, condition %s: class %s (level %s)\n",
			o.Regime, cond, o.Class, o.Level)
		if o.Reason != "" {
			fmt.Fprintf(out, "reason: %s\n", o.Reason)
		}
	}
	if !o.ExpectationMet {
		if shrink {
			if min, steps, err := degradable.ChaosShrink(sc); err == nil {
				fmt.Fprintf(out, "shrunk in %d steps to N=%d f=%d injectors=%d\nreproduce:\n  %s\n%s\n",
					steps, min.Scenario.N, min.Scenario.F(), len(min.Scenario.Injectors),
					chaos.ReproCommand(min.Scenario), indent(chaos.ReproGo(min.Scenario)))
			}
		}
		return fmt.Errorf("expectation missed: %s", o.ExpectReason)
	}
	fmt.Fprintln(out, "expectation met")
	return nil
}

// writeReport renders the human-readable campaign summary.
func writeReport(out io.Writer, rep *degradable.ChaosReport) {
	if rep.Interrupted {
		fmt.Fprintf(out, "chaos campaign: seed=%d runs=%d grid=%d points — INTERRUPTED after %d scenarios\n\n",
			rep.Seed, rep.Runs, len(rep.Grid), rep.Completed)
	} else {
		fmt.Fprintf(out, "chaos campaign: seed=%d runs=%d grid=%d points\n\n",
			rep.Seed, rep.Runs, len(rep.Grid))
	}
	t := stats.NewTable("outcome classes by fault regime",
		"regime", "scenarios", "SpecHeld", "GracefulOnly", "Violated", "Infeasible")
	for _, r := range rep.Regimes {
		t.AddRow(r.Regime, r.Scenarios, r.SpecHeld, r.GracefulOnly, r.Violated, r.Infeasible)
	}
	t.AddRow("total", rep.Completed, rep.SpecHeld, rep.GracefulOnly, rep.Violated, rep.Infeasible)
	fmt.Fprintln(out, t)
	i := rep.Injections
	fmt.Fprintf(out, "injections: %d messages inspected, %d dropped, %d delayed-to-absence, %d duplicated, %d corrupted, %d severed\n",
		i.Inspected, i.Dropped, i.Delayed, i.Duplicated, i.Corrupted, i.Severed)
	for _, mt := range rep.TopoMargins {
		fmt.Fprintf(out, "topology margin=%+d: scenarios=%d specHeld=%d gracefulOnly=%d violated=%d\n",
			mt.Margin, mt.Scenarios, mt.SpecHeld, mt.GracefulOnly, mt.Violated)
	}
	if a := rep.Async; a != nil {
		fmt.Fprintf(out, "async: terminated=%d notTerminated=%d (starved=%d) certificates=%d safety_violations=%d\n",
			a.Terminated, a.NotTerminated, a.Starved, a.CertTotal, a.SafetyViolations)
	}
	if w := rep.Worst; w != nil {
		fmt.Fprintf(out, "worst scenario: class %s in %s regime (N=%d m=%d u=%d f=%d)\n",
			w.Class, w.Regime, w.Scenario.N, w.Scenario.M, w.Scenario.U, w.Scenario.F())
	}
	for n, f := range rep.Failures {
		fmt.Fprintf(out, "\nFAILURE %d: %s\n", n+1, f.Outcome.ExpectReason)
		if f.Shrunk != nil {
			fmt.Fprintf(out, "shrunk in %d steps to N=%d f=%d injectors=%d\n",
				f.ShrinkSteps, f.Shrunk.Scenario.N, f.Shrunk.Scenario.F(), len(f.Shrunk.Scenario.Injectors))
		}
		fmt.Fprintf(out, "reproduce:\n  %s\n%s\n", f.ReproCommand, indent(f.ReproGo))
	}
	if rep.Healthy() {
		fmt.Fprintln(out, "campaign healthy: zero violations, zero missed expectations")
	}
}

func indent(s string) string {
	return "  " + strings.ReplaceAll(s, "\n", "\n  ")
}

// parseTopoAxis turns the -graph/-placement pair into a campaign topology
// axis. One family:params definition pins every scenario to that graph; a
// comma-separated list becomes the seeded per-scenario draw pool; the
// literal "families" draws from the built-in pool. -placement without
// -graph is an error: placement only means something on a sparse graph.
func parseTopoAxis(graphDef, placement string) (*chaos.TopoAxis, error) {
	if graphDef == "" {
		if placement != "" {
			return nil, fmt.Errorf("-placement %q requires -graph", placement)
		}
		return nil, nil
	}
	axis := &chaos.TopoAxis{Placement: placement}
	switch defs := strings.Split(graphDef, ","); {
	case graphDef == "families":
		// Draw from the built-in pool (axis.Families left nil).
	case len(defs) == 1:
		axis.Graph = defs[0]
	default:
		axis.Families = defs
	}
	return axis, nil
}

// runTopoSweep executes the Theorem 3 boundary table and writes it to path
// (testdata/topo_sweep_seed9.json is the seed-9 golden). A violation in any
// at-or-above-bound cell with f ≤ u makes the run exit non-zero: Theorem 3
// predicts exactly zero.
func runTopoSweep(out io.Writer, path string, seed int64, runsPerCell int) error {
	bench, err := degradable.ChaosTopologySweep(seed, runsPerCell)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(bench, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "topology sweep: seed=%d cells=%d held=%d degraded=%d failed=%d classic_refused_degradable_ok=%d bound_violations=%d\n",
		bench.Seed, bench.CellsTotal, bench.CellsHeld, bench.CellsDegraded,
		bench.CellsFailed, bench.ClassicRefused, bench.BoundViolations)
	fmt.Fprintf(out, "wrote %s\n", path)
	if bench.BoundViolations > 0 {
		return fmt.Errorf("topology sweep: %d spec violations above the Theorem 3 bound", bench.BoundViolations)
	}
	return nil
}

// parseAsyncAxis turns the -async/-sched pair into a campaign async axis.
// -sched without -async is an error: scheduling policies only exist on the
// asynchronous track (synchronous drivers close rounds by deadline).
func parseAsyncAxis(async bool, sched string) (*chaos.AsyncAxis, error) {
	if !async {
		if sched != "" {
			return nil, fmt.Errorf("-sched %q requires -async", sched)
		}
		return nil, nil
	}
	axis := &chaos.AsyncAxis{}
	if sched != "" {
		axis.Scheds = strings.Split(sched, ",")
	}
	return axis, nil
}

// runAsyncSweep executes the FIFO-versus-adversarial scheduling benchmark
// and writes it to path (testdata/async_sweep_seed7.json is the seed-7
// golden). Any safety violation makes the run exit non-zero: D.1 at the
// n > 3f tolerance must hold under every schedule.
func runAsyncSweep(out io.Writer, path string, seed int64, runs int) error {
	bench, err := degradable.ChaosAsyncSweep(seed, runs)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(bench, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	violations := 0
	for _, row := range bench.Rows {
		fmt.Fprintf(out, "async sweep %s: runs=%d dtd p50/p95/p99=%.0f/%.0f/%.0f certs=%d terminated=%d not_terminated=%d safety_violations=%d\n",
			row.Sched, row.Runs, row.DTDp50, row.DTDp95, row.DTDp99,
			row.CertTotal, row.Terminated, row.NotTerminated, row.SafetyViolations)
		violations += row.SafetyViolations
	}
	fmt.Fprintf(out, "wrote %s\n", path)
	if violations > 0 {
		return fmt.Errorf("async sweep: %d safety violations (quorum safety must hold under every schedule)", violations)
	}
	return nil
}

// parseGrid parses comma-separated n:m:u triples.
func parseGrid(s string) ([]chaos.GridPoint, error) {
	if s == "" {
		return nil, nil
	}
	var out []chaos.GridPoint
	for _, entry := range strings.Split(s, ",") {
		parts := strings.Split(entry, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("bad grid point %q: want n:m:u", entry)
		}
		var gp chaos.GridPoint
		for i, dst := range []*int{&gp.N, &gp.M, &gp.U} {
			v, err := strconv.Atoi(parts[i])
			if err != nil {
				return nil, fmt.Errorf("bad grid point %q: %v", entry, err)
			}
			*dst = v
		}
		out = append(out, gp)
	}
	return out, nil
}
