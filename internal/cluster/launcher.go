package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"degradable/internal/adversary"
	"degradable/internal/chaos"
	"degradable/internal/core"
	"degradable/internal/obs"
	"degradable/internal/proc"
	"degradable/internal/round"
	"degradable/internal/spec"
	"degradable/internal/stats"
	"degradable/internal/types"
)

// Config is one cluster run: an agreement configuration plus fault roles,
// in the internal/chaos vocabulary so scenarios and campaigns carry over
// unchanged.
type Config struct {
	N           int
	M           int
	U           int
	Sender      types.NodeID
	SenderValue types.Value
	// Faults assigns Byzantine strategies to nodes; each runs inside its
	// own process.
	Faults []adversary.FaultSpec
	// Injectors is the scenario injector stack, applied at each node's
	// egress with a per-node seed derived from Seed.
	Injectors []chaos.Injector
	// Topology pins the run to a sparse physical graph: every node routes
	// its egress over the disjoint-path channel (Faults doubling as corrupt
	// relays), so cluster executions sweep the same Theorem 3 boundary the
	// in-process drivers do.
	Topology *chaos.TopoSpec
	Seed     int64
	// Deadline bounds each round's hold-back wait per node (default 2s).
	Deadline time.Duration
	// RecordViews captures per-node transcripts in the report.
	RecordViews bool
	// Trace captures every node's structured round-event stream in the
	// report.
	Trace bool
	// Crashes schedules mid-round kill/restart events: each victim's
	// process is SIGKILLed at its round-phase mark and (unless NoRestart)
	// respawned to recover from its checkpoint. Victims count toward the
	// fault budget like any benign fault.
	Crashes []chaos.CrashSpec
	// CheckpointDir is where nodes write their crash-recovery snapshots.
	// Empty with a crash schedule means a temporary directory, removed
	// after the run.
	CheckpointDir string
	// RecoveryGrace bounds how long a respawned victim may take to rejoin
	// and report before it is written off as unrecovered. Zero means
	// Deadline*(depth+2)+5s.
	RecoveryGrace time.Duration
	// Command overrides how a node process is spawned (argv). Empty means
	// re-exec the current binary, which must call Hijack first thing; the
	// child is spawned in proc's "node" role either way.
	Command []string
}

// Report is one cluster run's aggregated outcome: the same Result shape
// the in-process drivers produce, the spec verdict over its decisions, and
// the cluster-specific counters.
type Report struct {
	Result  *round.Result
	Verdict spec.Verdict
	// Counters aggregates every node's egress injector tallies.
	Counters chaos.Counters
	// Obs merges every node's telemetry snapshot: counters summed,
	// round-wait histograms merged bucket-wise. Crash runs add the
	// launcher's own convergence_time histogram (kill-to-report wall time
	// per recovered victim).
	Obs obs.Snapshot
	// RoundWait summarizes every node's per-round hold-back waits in
	// nanoseconds (mean/min/max/p50/p95/p99 via internal/stats).
	RoundWait stats.Summary
	// Nodes holds the raw per-node reports, indexed by node ID. An
	// unrecovered crash victim's entry is nil.
	Nodes []*NodeReport
	// Recovery aggregates the crash-recovery observations (nil when no
	// crash was scheduled), and Convergence renders its taxonomy label:
	// "Converged-in-k-rounds" or "NeverConverged".
	Recovery    *chaos.RecoveryInfo
	Convergence string
}

// ConvergenceHist is the snapshot name of the launcher's kill-to-report
// convergence-time histogram.
const ConvergenceHist = "convergence_time"

// Late sums batches that missed their round deadline across nodes.
func (r *Report) Late() int { return int(r.Obs.Counter(nodeStatNames[nodeStatLate])) }

// RoundWaitMax is the longest per-round hold-back wait observed by any node
// (exact, from the merged histogram's max).
func (r *Report) RoundWaitMax() time.Duration {
	return time.Duration(r.Obs.Histograms[RoundWaitHist].MaxNs)
}

// RoundWaitTotal sums every node's per-round hold-back waits (exact, from
// the merged histogram's sum).
func (r *Report) RoundWaitTotal() time.Duration {
	return time.Duration(r.Obs.Histograms[RoundWaitHist].SumNs)
}

// Events concatenates the nodes' structured round-event streams in node-ID
// order (empty unless Config.Trace).
func (r *Report) Events() []obs.Event {
	var events []obs.Event
	for _, nr := range r.Nodes {
		if nr != nil {
			events = append(events, nr.Events...)
		}
	}
	return events
}

// Faulty returns the configured fault set: Byzantine nodes plus crash
// victims (a crash is a benign fault within the budget).
func (c Config) Faulty() types.NodeSet {
	var s types.NodeSet
	for _, f := range c.Faults {
		s = s.Add(f.Node)
	}
	for _, cr := range c.Crashes {
		s = s.Add(cr.Node)
	}
	return s
}

// probeDir checks, before any node starts, that checkpoints can be written
// into dir by creating and removing a file there. It creates no directory.
// A node's own write failures stay non-fatal (saveCheckpoint); this catches
// the directory that would fail every one of them.
func probeDir(dir string) error {
	f, err := os.CreateTemp(dir, ".probe-*")
	if err == nil {
		err = f.Close()
		if rmErr := os.Remove(f.Name()); err == nil {
			err = rmErr
		}
	}
	if err != nil {
		return fmt.Errorf("cluster: checkpoint dir %s is not writable: %w", dir, err)
	}
	return nil
}

// Run executes one agreement instance as cfg.N separate OS processes over
// loopback TCP and aggregates their reports. ctx bounds the whole run; on
// expiry the node processes are killed.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	p := core.Params{N: cfg.N, M: cfg.M, U: cfg.U, Sender: cfg.Sender}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = 2 * time.Second
	}
	if _, err := adversary.CheckFaults(cfg.N, cfg.Faults); err != nil {
		return nil, err
	}
	faultBy := make(map[types.NodeID]*adversary.FaultSpec, len(cfg.Faults))
	faulty := make([]types.NodeID, 0, len(cfg.Faults)+len(cfg.Crashes))
	for i, f := range cfg.Faults {
		faultBy[f.Node] = &cfg.Faults[i]
		faulty = append(faulty, f.Node)
	}
	crashBy := make(map[types.NodeID]*chaos.CrashSpec, len(cfg.Crashes))
	if len(cfg.Crashes) > 0 {
		// Reuse the scenario-level validation so every executor rejects the
		// same malformed schedules.
		vsc := chaos.Scenario{N: cfg.N, M: cfg.M, U: cfg.U, Sender: cfg.Sender,
			Faults: cfg.Faults, Crashes: cfg.Crashes}
		if err := vsc.ValidateCrashes(); err != nil {
			return nil, err
		}
		for i := range cfg.Crashes {
			cr := &cfg.Crashes[i]
			crashBy[cr.Node] = cr
			faulty = append(faulty, cr.Node)
		}
	}
	ckptDir := cfg.CheckpointDir
	if ckptDir != "" {
		if err := probeDir(ckptDir); err != nil {
			return nil, err
		}
	} else if len(cfg.Crashes) > 0 {
		dir, err := os.MkdirTemp("", "degradable-ckpt-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		ckptDir = dir
	}

	argv := cfg.Command
	if len(argv) == 0 {
		self, err := os.Executable()
		if err != nil {
			return nil, err
		}
		argv = []string{self}
	}

	procs := make([]*proc.Proc, cfg.N)
	defer func() {
		for _, pr := range procs {
			if pr != nil {
				pr.Kill()
			}
		}
	}()
	for i := 0; i < cfg.N; i++ {
		nc := NodeConfig{
			ID: types.NodeID(i), N: cfg.N, M: cfg.M, U: cfg.U,
			Sender: cfg.Sender, SenderValue: cfg.SenderValue,
			Fault: faultBy[types.NodeID(i)], Faulty: faulty,
			Injectors: cfg.Injectors, Seed: cfg.Seed,
			Topology: cfg.Topology, TopoFaults: cfg.Faults,
			Deadline: cfg.Deadline, RecordViews: cfg.RecordViews,
			Trace: cfg.Trace, Checkpoint: ckptDir,
			Progress: crashBy[types.NodeID(i)] != nil,
		}
		pr, err := proc.Spawn(ctx, argv, "node")
		if err != nil {
			return nil, err
		}
		procs[i] = pr
		if err := pr.Send(nc); err != nil {
			return nil, fmt.Errorf("cluster: node %d config: %w", i, err)
		}
	}

	// Collect every node's listen address, then distribute the roster. A
	// node that stays silent past the startup deadline fails the launch.
	ros := roster{Peers: make([]string, cfg.N)}
	for i, pr := range procs {
		var ll listenLine
		if err := readReply(pr, proc.StartupWait, &ll); err != nil {
			return nil, fmt.Errorf("cluster: node %d listen: %w", i, err)
		}
		ros.Peers[i] = ll.Listen
	}
	for i, pr := range procs {
		if err := pr.Send(ros); err != nil {
			return nil, fmt.Errorf("cluster: node %d roster: %w", i, err)
		}
	}

	// Launch the per-victim crash controllers. Each takes ownership of its
	// victim's process: lands the kill at the scheduled round-phase mark,
	// corrupts the checkpoint if scheduled, respawns, and delivers the
	// final incarnation's report. Non-victims keep the plain sequential
	// collection below — when no crash is scheduled this path is byte-for-
	// byte the crash-free launcher.
	victims := make(map[types.NodeID]chan crashResult, len(crashBy))
	if len(crashBy) > 0 {
		grace := cfg.RecoveryGrace
		if grace <= 0 {
			grace = cfg.Deadline*time.Duration(p.Depth()+2) + 5*time.Second
		}
		for id, cr := range crashBy {
			ch := make(chan crashResult, 1)
			victims[id] = ch
			nc := NodeConfig{
				ID: id, N: cfg.N, M: cfg.M, U: cfg.U,
				Sender: cfg.Sender, SenderValue: cfg.SenderValue,
				Faulty:    faulty,
				Injectors: cfg.Injectors, Seed: cfg.Seed,
				Topology: cfg.Topology, TopoFaults: cfg.Faults,
				Deadline: cfg.Deadline, RecordViews: cfg.RecordViews,
				Trace: cfg.Trace, Checkpoint: ckptDir,
			}
			pr := procs[int(id)]
			procs[int(id)] = nil // the controller owns the process now
			go func(cr *chaos.CrashSpec, pr *proc.Proc, nc NodeConfig) {
				ch <- crashVictim(ctx, argv, cr, pr, nc, ros, ckptDir, grace)
			}(cr, pr, nc)
		}
	}

	rep := &Report{
		Result: &round.Result{
			Decisions: make(map[types.NodeID]types.Value, cfg.N),
			PerRound:  make([]int, p.Depth()),
		},
		Nodes: make([]*NodeReport, cfg.N),
	}
	if cfg.RecordViews {
		rep.Result.Views = make(map[types.NodeID][]types.Message, cfg.N)
	}
	var ri *chaos.RecoveryInfo
	var convHist *obs.Histogram
	if len(crashBy) > 0 {
		ri = &chaos.RecoveryInfo{}
		convHist = obs.NewHistogram()
	}
	for i, pr := range procs {
		var nr *NodeReport
		if ch, ok := victims[types.NodeID(i)]; ok {
			res := <-ch
			if res.err != nil {
				return nil, fmt.Errorf("cluster: crash victim %d: %w", i, res.err)
			}
			if res.rep == nil {
				ri.Unrecovered++
				continue
			}
			ri.Restarts++
			convHist.Observe(res.converge)
			if rec := res.rep.Recovery; rec != nil && rec.LostRounds > ri.LostRounds {
				ri.LostRounds = rec.LostRounds
			}
			nr = res.rep
		} else {
			nr = new(NodeReport)
			if err := readReply(pr, 0, nr); err != nil {
				return nil, fmt.Errorf("cluster: node %d report: %w", i, err)
			}
			if err := pr.Wait(); err != nil {
				return nil, fmt.Errorf("cluster: node %d: %w", i, err)
			}
			procs[i] = nil
		}
		if int(nr.ID) != i {
			return nil, fmt.Errorf("cluster: node %d reported as %d", i, int(nr.ID))
		}
		rep.Nodes[i] = nr
		rep.Result.Decisions[nr.ID] = nr.Decision
		rep.Result.Messages += nr.Messages
		rep.Result.Delivered += nr.Delivered
		rep.Result.Bytes += nr.Bytes
		for r, c := range nr.PerRound {
			if r < len(rep.Result.PerRound) {
				rep.Result.PerRound[r] += c
			}
		}
		if cfg.RecordViews {
			rep.Result.Views[nr.ID] = nr.Views
		}
		rep.Counters.Add(nr.Counters)
		rep.Obs.Merge(nr.Obs)
	}
	waits := make([]float64, 0, len(rep.Nodes)*p.Depth())
	for _, nr := range rep.Nodes {
		if nr == nil {
			continue
		}
		for _, w := range nr.RoundWaitsNs {
			waits = append(waits, float64(w))
		}
	}
	rep.RoundWait = stats.Summarize(waits)
	if ri != nil {
		ri.CorruptRejected = int64(rep.Obs.Counter(nodeStatNames[nodeStatCkptCorrupt]))
		ri.StaleRejected = int64(rep.Obs.Counter(nodeStatNames[nodeStatCkptStale]))
		rep.Obs.SetHistogram(ConvergenceHist, convHist.Snapshot())
		rep.Recovery = ri
		rep.Convergence = ri.Label()
	}
	rep.Verdict = spec.Check(spec.Execution{
		M: cfg.M, U: cfg.U,
		Sender:      cfg.Sender,
		SenderValue: cfg.SenderValue,
		Faulty:      cfg.Faulty(),
		Decisions:   rep.Result.Decisions,
	})
	return rep, nil
}

// crashResult is one victim controller's outcome: the final incarnation's
// report (nil when the victim stayed down — NoRestart, or the respawn
// missed the recovery grace), and the kill-to-report convergence time.
type crashResult struct {
	rep      *NodeReport
	converge time.Duration
	err      error
}

// crashVictim drives one scheduled crash end to end: watch the victim's
// progress marks for the scheduled round-phase boundary, SIGKILL it there,
// damage its checkpoint if scheduled, respawn it bound to its original
// roster address, and collect the restarted incarnation's report.
func crashVictim(ctx context.Context, argv []string, cr *chaos.CrashSpec, pr *proc.Proc, nc NodeConfig, ros roster, ckptDir string, grace time.Duration) crashResult {
	phase := cr.EffectivePhase()
	for {
		raw, err := pr.ReadLine(0)
		if err != nil {
			pr.Kill()
			return crashResult{err: fmt.Errorf("died before its round %d %q mark: %w", cr.Round, phase, err)}
		}
		var probe struct {
			Progress *int   `json:"progress"`
			Phase    string `json:"phase"`
		}
		if json.Unmarshal(raw, &probe) != nil || probe.Progress == nil {
			// The report line: the victim finished before its mark, which the
			// marks' placement makes impossible; surface it as an error.
			pr.Kill()
			return crashResult{err: fmt.Errorf("reported before its round %d %q mark", cr.Round, phase)}
		}
		if *probe.Progress == cr.Round && probe.Phase == phase {
			break
		}
	}
	// The mark means the boundary's checkpoint is on disk: kill here and the
	// victim's recovery story starts exactly at (round, phase).
	pr.Kill()
	killedAt := time.Now()
	if cr.Corrupt != "" {
		if err := CorruptCheckpoint(CheckpointPath(ckptDir, cr.Node), cr.Corrupt, cr.Round-1); err != nil {
			return crashResult{err: fmt.Errorf("corrupt checkpoint: %w", err)}
		}
	}
	if cr.NoRestart {
		return crashResult{} // permanent: NeverConverged by construction
	}
	nc.Restart = 1
	nc.Resume = cr.Round
	nc.ResumePhase = phase
	nc.Listen = ros.Peers[int(cr.Node)]
	pr2, err := proc.Spawn(ctx, argv, "node")
	if err != nil {
		return crashResult{err: fmt.Errorf("respawn: %w", err)}
	}
	defer pr2.Kill()
	if err := pr2.Send(nc); err != nil {
		return crashResult{err: fmt.Errorf("respawn: %w", err)}
	}
	// The grace timer only ever kills the process; the pipe reads below then
	// fail and the victim is written off as unrecovered.
	timer := time.AfterFunc(grace, pr2.Kill)
	defer timer.Stop()
	var ll listenLine
	if err := readReply(pr2, proc.StartupWait, &ll); err != nil {
		return crashResult{}
	}
	if err := pr2.Send(ros); err != nil {
		return crashResult{}
	}
	var nr NodeReport
	if err := readReply(pr2, 0, &nr); err != nil {
		return crashResult{}
	}
	if err := pr2.Wait(); err != nil {
		return crashResult{}
	}
	return crashResult{rep: &nr, converge: time.Since(killedAt)}
}

// readReply decodes a node's next stdout line into v; wait > 0 bounds the
// read.
func readReply(p *proc.Proc, wait time.Duration, v any) error {
	line, err := p.ReadLine(wait)
	if err != nil {
		return err
	}
	return json.Unmarshal(line, v)
}

// Executor adapts the cluster launcher to the chaos campaign engine: the
// returned Executor runs every scenario as one process per node — crash
// schedules included, as real SIGKILLs and respawns — so a campaign's
// generation, classification, and shrink-repro machinery judges real
// cross-process executions. deadline overrides the per-round hold-back
// bound (zero keeps the default).
func Executor(ctx context.Context, deadline time.Duration) chaos.Executor {
	return func(sc chaos.Scenario) (*chaos.ExecOutcome, error) {
		rep, err := Run(ctx, Config{
			N: sc.N, M: sc.M, U: sc.U,
			Sender: sc.Sender, SenderValue: sc.SenderValue,
			Faults: sc.Faults, Injectors: sc.Injectors,
			Crashes:  sc.Crashes,
			Topology: sc.Topology,
			Seed:     sc.Seed, Deadline: deadline,
		})
		if err != nil {
			return nil, err
		}
		return &chaos.ExecOutcome{
			Decisions: rep.Result.Decisions,
			Messages:  rep.Result.Messages,
			Delivered: rep.Result.Delivered,
			Counters:  rep.Counters,
			Recovery:  rep.Recovery,
		}, nil
	}
}
