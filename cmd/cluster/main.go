// Command cluster runs m/u-degradable agreement as a true distributed
// system: one OS process per node on loopback TCP, round-tagged frames,
// per-round hold-back deadlines (§4 assumption b), and decisions judged
// against the executable spec.
//
// Usage:
//
//	cluster -n 7 -m 1 -u 2 -faults 2:twofaced:999,4:silent    # one instance
//	cluster -n 7 -m 1 -u 2 -kill 3:1:sent                     # SIGKILL + restart mid-round
//	cluster -n 7 -m 1 -u 2 -kill 3:2:sent:bitflip             # + corrupted checkpoint
//	cluster -n 7 -m 1 -u 2 -campaign 25 -seed 7               # chaos campaign
//	cluster -n 7 -m 1 -u 2 -campaign 25 -crashes 2            # + crash schedules
//
// Fault syntax is chaos.ParseFaults' node:kind[:value][:seed] with kinds
// silent, crash, lie, twofaced, random. Crash schedules (-kill) are
// node:round[:phase][:mod] — phase "sent" or "closed", mod one of bitflip,
// truncate, stale (damage the victim's checkpoint before the respawn) or
// norestart (leave it dead: NeverConverged by construction). The run's
// convergence taxonomy (Converged-in-k-rounds / NeverConverged) and the
// restore counters land in the report. In campaign mode every generated
// scenario executes across real processes and is classified by the chaos
// engine (SpecHeld / GracefulOnly / Violated / Infeasible); the command
// exits non-zero on any violation or missed expectation. Node processes are
// spawned by re-executing this binary (-node-bin substitutes another node
// binary, e.g. cmd/node).
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
	"time"

	"degradable/internal/chaos"
	"degradable/internal/cluster"
	"degradable/internal/obs"
	"degradable/internal/stats"
	"degradable/internal/types"
)

func main() {
	cluster.Hijack() // node processes re-execute this binary
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cluster:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cluster", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		n        = fs.Int("n", 7, "number of nodes (one process each)")
		m        = fs.Int("m", 1, "full-agreement fault threshold")
		u        = fs.Int("u", 2, "degraded-agreement fault threshold")
		sender   = fs.Int("sender", 0, "sender node ID")
		value    = fs.Int64("value", 1001, "sender's input value")
		faults   = fs.String("faults", "", "faults as node:kind[:value][:seed], comma separated")
		seed     = fs.Int64("seed", 1, "scenario/campaign seed")
		deadline = fs.Duration("deadline", 2*time.Second, "per-round hold-back deadline")
		campaign = fs.Int("campaign", 0, "run a chaos campaign of this many scenarios instead of one instance")
		crashes  = fs.Int("crashes", 0, "campaign mode: schedule up to this many kill/restart events per scenario")
		kill     = fs.String("kill", "", "crash schedule as node:round[:phase][:bitflip|truncate|stale|norestart], comma separated")
		ckptDir  = fs.String("ckpt-dir", "", "checkpoint directory (default: a temporary directory per run)")
		grace    = fs.Duration("grace", 0, "recovery grace: how long a respawned victim may take to rejoin (default deadline*(m+3)+5s)")
		trace    = fs.String("trace", "", "dump the structured round-event stream to this JSONL file")
		asJSON   = fs.Bool("json", false, "emit the full report as JSON")
		nodeBin  = fs.String("node-bin", "", "spawn this node binary instead of re-executing (e.g. a cmd/node build)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var command []string
	if *nodeBin != "" {
		command = []string{*nodeBin}
	}

	// SIGINT cancels the run; node processes are killed with it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *campaign > 0 {
		return runCampaign(ctx, out, campaignConfig{
			n: *n, m: *m, u: *u, seed: *seed, runs: *campaign,
			crashes:  *crashes,
			deadline: *deadline, trace: *trace,
			asJSON: *asJSON, command: command,
		})
	}

	flts, err := chaos.ParseFaults(*faults)
	if err != nil {
		return err
	}
	kills, err := parseKills(*kill)
	if err != nil {
		return err
	}
	rep, err := cluster.Run(ctx, cluster.Config{
		N: *n, M: *m, U: *u,
		Sender: types.NodeID(*sender), SenderValue: types.Value(*value),
		Faults: flts, Seed: *seed, Deadline: *deadline, Command: command,
		Crashes: kills, CheckpointDir: *ckptDir, RecoveryGrace: *grace,
		Trace: *trace != "",
	})
	if err != nil {
		return err
	}
	if *trace != "" {
		if err := obs.WriteJSONLFile(*trace, rep.Events()); err != nil {
			return err
		}
	}
	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(out, "cluster: N=%d m=%d u=%d f=%d — %d processes over loopback TCP\n",
			*n, *m, *u, len(flts), *n)
		for i := 0; i < *n; i++ {
			fmt.Fprintf(out, "  node %d decided %s\n", i, rep.Result.Decisions[types.NodeID(i)])
		}
		fmt.Fprintf(out, "verdict: %s — ok=%v graceful=%v", rep.Verdict.Condition, rep.Verdict.OK, rep.Verdict.Graceful)
		if rep.Verdict.Reason != "" {
			fmt.Fprintf(out, " (%s)", rep.Verdict.Reason)
		}
		fmt.Fprintf(out, "\nround waits: max %v, p99 %v, total %v; late batches: %d\n",
			rep.RoundWaitMax(), time.Duration(rep.RoundWait.P99), rep.RoundWaitTotal(), rep.Late())
		if rep.Recovery != nil {
			fmt.Fprintf(out, "recovery: %s — %d restart(s), %d unrecovered, %d corrupt / %d stale checkpoint(s) rejected\n",
				rep.Convergence, rep.Recovery.Restarts, rep.Recovery.Unrecovered,
				rep.Recovery.CorruptRejected, rep.Recovery.StaleRejected)
		}
	}
	if !rep.Verdict.OK {
		return fmt.Errorf("spec violated: %s", rep.Verdict.Reason)
	}
	return nil
}

// campaignConfig carries the campaign-mode parameters.
type campaignConfig struct {
	n, m, u  int
	seed     int64
	runs     int
	crashes  int
	deadline time.Duration
	trace    string
	asJSON   bool
	command  []string
}

// runCampaign sweeps a seeded chaos campaign where every scenario runs as
// one OS process per node, merging the unified telemetry snapshots across
// runs for the summary lines.
func runCampaign(ctx context.Context, out io.Writer, cc campaignConfig) error {
	var agg struct {
		snap      obs.Snapshot
		waits     []float64
		events    []obs.Event
		processes int
	}
	exec := func(sc chaos.Scenario) (*chaos.ExecOutcome, error) {
		rep, err := cluster.Run(ctx, cluster.Config{
			N: sc.N, M: sc.M, U: sc.U,
			Sender: sc.Sender, SenderValue: sc.SenderValue,
			Faults: sc.Faults, Injectors: sc.Injectors,
			Crashes: sc.Crashes,
			Seed:    sc.Seed, Deadline: cc.deadline, Command: cc.command,
			Trace: cc.trace != "",
		})
		if err != nil {
			return nil, err
		}
		agg.processes += sc.N
		agg.snap.Merge(rep.Obs)
		for _, nr := range rep.Nodes {
			if nr == nil {
				continue // an unrecovered crash victim has no report
			}
			for _, w := range nr.RoundWaitsNs {
				agg.waits = append(agg.waits, float64(w))
			}
		}
		if cc.trace != "" {
			agg.events = append(agg.events, rep.Events()...)
		}
		return &chaos.ExecOutcome{
			Decisions: rep.Result.Decisions,
			Messages:  rep.Result.Messages,
			Delivered: rep.Result.Delivered,
			Counters:  rep.Counters,
			Recovery:  rep.Recovery,
		}, nil
	}
	c := chaos.Campaign{
		Seed: cc.seed, Runs: cc.runs,
		Grid:    []chaos.GridPoint{{N: cc.n, M: cc.m, U: cc.u}},
		Crashes: cc.crashes,
		Driver:  chaos.DriverCluster,
	}
	rep, err := c.RunContextWith(ctx, exec)
	if err != nil {
		return err
	}
	wait := stats.Summarize(agg.waits)
	late := int(agg.snap.Counter("late_batches_total"))
	if cc.asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(out, "cluster campaign: N=%d m=%d u=%d seed=%d — %d scenarios, %d node processes\n",
			cc.n, cc.m, cc.u, cc.seed, rep.Completed, agg.processes)
		fmt.Fprintf(out, "classes: %d SpecHeld, %d GracefulOnly, %d Violated, %d Infeasible\n",
			rep.SpecHeld, rep.GracefulOnly, rep.Violated, rep.Infeasible)
		fmt.Fprintf(out, "round waits: max %v, p50 %v, p99 %v; late batches: %d\n",
			time.Duration(wait.Max), time.Duration(wait.P50), time.Duration(wait.P99), late)
		if snap := agg.snap; cc.crashes > 0 || snap.Counter("restart_total") > 0 {
			conv := snap.Histograms[cluster.ConvergenceHist]
			fmt.Fprintf(out, "recovery: %d restart(s), %d checkpoint(s), %d corrupt / %d stale / %d missing re-init(s), converge mean %.1fms max %.1fms\n",
				snap.Counter("restart_total"), snap.Counter("checkpoints_total"),
				snap.Counter("checkpoint_corrupt_total"), snap.Counter("checkpoint_stale_total"),
				snap.Counter("checkpoint_missing_total"),
				float64(conv.Mean())/float64(time.Millisecond), float64(conv.MaxNs)/float64(time.Millisecond))
		}
		for i, f := range rep.Failures {
			fmt.Fprintf(out, "FAILURE %d: %s\n  reproduce: %s\n", i+1, f.Outcome.ExpectReason, f.ReproCommand)
		}
	}
	if cc.trace != "" {
		if err := obs.WriteJSONLFile(cc.trace, agg.events); err != nil {
			return err
		}
	}
	if !rep.Healthy() {
		return fmt.Errorf("campaign unhealthy: %d violated, %d missed expectations",
			rep.Violated, len(rep.Failures))
	}
	if rep.Interrupted {
		return fmt.Errorf("interrupted after %d/%d scenarios", rep.Completed, rep.Runs)
	}
	return nil
}

// parseKills parses node:round[:phase][:mod] crash-schedule entries: phase
// "sent" (default) or "closed"; mod "bitflip", "truncate", "stale"
// (checkpoint corruption before the respawn) or "norestart" (permanent
// kill).
func parseKills(s string) ([]chaos.CrashSpec, error) {
	if s == "" {
		return nil, nil
	}
	var out []chaos.CrashSpec
	for _, entry := range strings.Split(s, ",") {
		parts := strings.Split(entry, ":")
		if len(parts) < 2 || len(parts) > 4 {
			return nil, fmt.Errorf("bad kill %q: want node:round[:phase][:mod]", entry)
		}
		node, err := strconv.Atoi(parts[0])
		if err != nil {
			return nil, fmt.Errorf("bad kill node %q: %v", parts[0], err)
		}
		r, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, fmt.Errorf("bad kill round %q: %v", parts[1], err)
		}
		cr := chaos.CrashSpec{Node: types.NodeID(node), Round: r}
		for _, mod := range parts[2:] {
			switch mod {
			case chaos.CrashPhaseSent, chaos.CrashPhaseClosed:
				cr.Phase = mod
			case chaos.CorruptBitFlip, chaos.CorruptTruncate, chaos.CorruptStale:
				cr.Corrupt = mod
			case "norestart":
				cr.NoRestart = true
			default:
				return nil, fmt.Errorf("bad kill modifier %q in %q", mod, entry)
			}
		}
		out = append(out, cr)
	}
	return out, nil
}
