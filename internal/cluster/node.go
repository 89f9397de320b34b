// Package cluster is the distributed driver of the round engine: one OS
// process per node, exchanging round-tagged protocol messages over loopback
// TCP using the internal/wire length-prefixed codec.
//
// Where the in-process driver (round.Reference) realizes the §4 synchrony
// assumptions by construction — a shared-memory barrier cannot lose or
// reorder anything — the cluster driver realizes them against a real
// network:
//
//	(a) correct delivery: TCP per-connection reliability plus a per-round
//	    batch-complete marker (an empty round batch), so "peer sent
//	    nothing" is a positive statement, not a timeout guess;
//	(b) detectable absence: each node holds back future-round traffic and
//	    closes a round at its deadline — a batch that misses the deadline
//	    is exactly the detectable absence of §4 assumption (b), and the
//	    protocol substitutes V_d for the missing claims;
//	(c) identified source: the first frame on every connection is a Hello
//	    binding it to a node identity, and the receiver stamps each
//	    message's From from that binding — a Byzantine process cannot
//	    forge another node's identity inside a message body.
//
// The same three assumptions carry the crash-recovery story. A node
// checkpoints its round state (EIG tree, hold-back buffer, round boundary)
// to disk at every phase boundary; a killed process is respawned, restores
// the checkpoint — or, when the checkpoint is corrupt, stale, or missing,
// falls back to a V_d-safe re-initialization in which every missed round
// reads as the default value, §4 assumption (b) applied to the node's own
// past — and re-enters the mesh by re-dialing every peer with an
// incarnation-tagged Hello. Peers rebind their connection for that identity
// only when the incarnation is newer than the one bound, so a stale
// duplicate can never hijack a live connection.
//
// The launcher (Run) spawns N node processes, distributes the roster over
// stdin/stdout, aggregates their reports into the same Result shape the
// in-process drivers produce, and judges decisions with internal/spec.
// Fault roles reuse the internal/chaos vocabulary: Byzantine strategies
// wrap the node in its own process, injector stacks become each node's
// local egress channel, and crash schedules become SIGKILLs landed at
// checkpointed round boundaries, so chaos campaigns run unchanged across
// real processes.
package cluster

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"

	"degradable/internal/adversary"
	"degradable/internal/chaos"
	"degradable/internal/core"
	"degradable/internal/eig"
	"degradable/internal/obs"
	"degradable/internal/proc"
	"degradable/internal/round"
	"degradable/internal/types"
	"degradable/internal/wire"
)

// NodeConfig is everything one node process needs, sent as the first JSON
// line on its stdin.
type NodeConfig struct {
	ID          types.NodeID `json:"id"`
	N           int          `json:"n"`
	M           int          `json:"m"`
	U           int          `json:"u"`
	Sender      types.NodeID `json:"sender"`
	SenderValue types.Value  `json:"senderValue"`
	// Fault arms this node with a Byzantine strategy (nil = honest).
	Fault *adversary.FaultSpec `json:"fault,omitempty"`
	// Faulty is the full fault set, for injector scoping.
	Faulty []types.NodeID `json:"faulty,omitempty"`
	// Injectors is the scenario's injector stack; this node applies it to
	// its own egress with a seed derived from Seed and ID.
	Injectors []chaos.Injector `json:"injectors,omitempty"`
	// Topology pins the run to a sparse physical graph: the node routes its
	// own egress over the disjoint-path channel (after the injector stack,
	// matching the in-process composition). The channels are deterministic
	// per message, so per-node egress routing reproduces exactly what one
	// global channel would do.
	Topology *chaos.TopoSpec `json:"topology,omitempty"`
	// TopoFaults is the scenario's full fault list — the topology channel
	// derives every node's relay-corruption behaviour from it, which this
	// node's single Fault field cannot carry.
	TopoFaults []adversary.FaultSpec `json:"topoFaults,omitempty"`
	Seed       int64                 `json:"seed,omitempty"`
	// Deadline bounds each round's hold-back wait (§4 assumption b).
	Deadline time.Duration `json:"deadline"`
	// RecordViews captures the node's delivered transcript in its report.
	RecordViews bool `json:"recordViews,omitempty"`
	// Trace captures the node's structured round events in its report.
	Trace bool `json:"trace,omitempty"`
	// Checkpoint, when non-empty, is the directory the node writes its
	// round-boundary state snapshots to — and restores from on restart.
	Checkpoint string `json:"checkpoint,omitempty"`
	// Restart is the process's incarnation: 0 on first launch, k > 0 for
	// the k-th respawn after a kill. A restarted node restores its
	// checkpoint and re-dials every peer with an incarnation-tagged Hello.
	Restart int `json:"restart,omitempty"`
	// Resume and ResumePhase are the round boundary the launcher knows the
	// killed incarnation had reached (its last progress mark). A readable
	// checkpoint recorded at an earlier boundary is stale — state from the
	// wrong point in time, rejected even though its checksum is intact.
	Resume      int    `json:"resume,omitempty"`
	ResumePhase string `json:"resumePhase,omitempty"`
	// Listen overrides the node's listen address. A restarted node rebinds
	// its original roster address so every peer's roster stays valid across
	// restarts.
	Listen string `json:"listen,omitempty"`
	// Progress makes the node print a progress line after each round-phase
	// boundary (post-checkpoint): the launcher's crash controller uses the
	// marks to land SIGKILL at an exact round and phase.
	Progress bool `json:"progress,omitempty"`
}

// roster is the second JSON line on a node's stdin: every node's listen
// address, indexed by node ID.
type roster struct {
	Peers []string `json:"peers"`
}

// listenLine is the first JSON line a node prints: where it listens.
type listenLine struct {
	Listen string `json:"listen"`
}

// progressLine is a round-phase boundary mark a node prints when
// NodeConfig.Progress is set: round Progress reached phase Phase, and the
// checkpoint for that boundary (if enabled) is on disk.
type progressLine struct {
	Progress int    `json:"progress"`
	Phase    string `json:"phase"`
}

// NodeRecovery describes how a restarted node re-entered the run.
type NodeRecovery struct {
	// Incarnation is the restart count (1 for the first respawn).
	Incarnation int `json:"incarnation"`
	// Source says what the restore used: "checkpoint" (verified and
	// imported), or the V_d-safe re-initialization fallbacks "corrupt",
	// "stale", and "missing".
	Source string `json:"source"`
	// CkptRound is the round recorded in the checkpoint file (-1 when no
	// checkpoint was readable).
	CkptRound int `json:"ckptRound"`
	// ResumeRound is the round the node's main loop resumed at.
	ResumeRound int `json:"resumeRound"`
	// LostRounds is how many rounds of received state the kill cost: 0 for
	// a "closed" checkpoint, 1 for a "sent" checkpoint (the in-flight
	// round's inbound), and the full resume round for a re-initialization.
	LostRounds int `json:"lostRounds"`
}

// NodeReport is the final JSON line a node prints: its decision and its
// share of the run's accounting.
type NodeReport struct {
	ID       types.NodeID `json:"id"`
	Decision types.Value  `json:"decision"`
	// Messages counts the node's sends (post-validation, pre-channel), and
	// PerRound splits them by round; Delivered and Bytes count its
	// receptions — summed across nodes they match the engine's global
	// accounting.
	Messages  int             `json:"messages"`
	PerRound  []int           `json:"perRound"`
	Delivered int             `json:"delivered"`
	Bytes     int             `json:"bytes"`
	Views     []types.Message `json:"views,omitempty"`
	// Counters tallies the node's egress injector stack.
	Counters chaos.Counters `json:"counters"`
	// Obs is the node's telemetry in the unified snapshot schema: the late
	// batch / deadline miss / V_d substitution / restart / checkpoint
	// counters and the per-round hold-back wait histogram.
	Obs obs.Snapshot `json:"obs"`
	// RoundWaitsNs is every round's raw hold-back wait in order — a few
	// entries per run, kept exact so the launcher can feed all nodes' waits
	// through internal/stats for p50/p99 in bench artifacts.
	RoundWaitsNs []int64 `json:"roundWaitsNs,omitempty"`
	// Events is the node's structured round-event stream (only when
	// NodeConfig.Trace).
	Events []obs.Event `json:"events,omitempty"`
	// Recovery is set on restarted incarnations: how the restore went.
	Recovery *NodeRecovery `json:"recovery,omitempty"`
}

// Names of the per-node obs counters, in index order.
const (
	nodeStatLate = iota // peer batches that completed after their round closed
	nodeStatDeadlineMiss
	nodeStatVdSub
	nodeStatRestart     // incarnations > 0 (one per respawned process)
	nodeStatCkptWritten // checkpoints written at round-phase boundaries
	nodeStatCkptCorrupt // restores rejected for checksum/framing damage
	nodeStatCkptStale   // restores rejected for a wrong recorded round
	nodeStatCkptMissing // restores with no checkpoint file at all
	numNodeStats
)

// nodeStatNames are the unified-snapshot names of the node counters.
var nodeStatNames = []string{
	"late_batches_total", "deadline_misses_total", "vd_subs_total",
	"restart_total", "checkpoints_total", "checkpoint_corrupt_total",
	"checkpoint_stale_total", "checkpoint_missing_total",
}

// RoundWaitHist is the snapshot name of the per-round hold-back wait
// histogram.
const RoundWaitHist = "round_wait"

// Late returns the node's late-batch count from its obs snapshot.
func (nr *NodeReport) Late() int { return int(nr.Obs.Counter(nodeStatNames[nodeStatLate])) }

// Hijack diverts a process spawned in proc's "node" role into NodeMain.
// Launcher-capable binaries must call it before anything else (tests from
// TestMain); it returns in the parent process and never returns in a node
// process.
func Hijack() {
	if proc.Role() != "node" {
		return
	}
	if err := NodeMain(os.Stdin, os.Stdout, "127.0.0.1:0"); err != nil {
		fmt.Fprintln(os.Stderr, "cluster node:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// NodeMain runs one node process end to end over its stdio: read the
// NodeConfig line, listen (on the config's Listen address when set — a
// restarted node rebinds its roster slot), print the listen line, read the
// roster line, run the protocol against the peers, print the NodeReport
// line. Progress marks, when enabled, are printed between the listen line
// and the report.
func NodeMain(in io.Reader, out io.Writer, listenAddr string) error {
	br := bufio.NewReader(in)
	var cfg NodeConfig
	if err := readLine(br, &cfg); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	if cfg.Listen != "" {
		listenAddr = cfg.Listen
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return err
	}
	defer ln.Close()
	if err := proc.WriteJSON(out, listenLine{Listen: ln.Addr().String()}); err != nil {
		return err
	}
	var ros roster
	if err := readLine(br, &ros); err != nil {
		return fmt.Errorf("roster: %w", err)
	}
	rep, err := runNode(cfg, ln, ros.Peers, out)
	if err != nil {
		return err
	}
	return proc.WriteJSON(out, rep)
}

// readLine decodes one newline-terminated JSON value.
func readLine(br *bufio.Reader, v any) error {
	line, err := br.ReadBytes('\n')
	if len(line) == 0 && err != nil {
		return err
	}
	return json.Unmarshal(line, v)
}

// nodeObs is one node's live telemetry during a run: obs counters, the
// round-wait histogram, the raw per-round waits, and (when tracing) the
// event ring, all materialized into the NodeReport at the end.
type nodeObs struct {
	stats  *obs.CounterSet
	wait   *obs.Histogram
	waits  []int64
	tracer *obs.Tracer
}

func newNodeObs(rounds int, trace bool) *nodeObs {
	no := &nodeObs{
		stats: obs.NewCounterSet(nodeStatNames...),
		wait:  obs.NewHistogram(),
		waits: make([]int64, 0, rounds),
	}
	if trace {
		no.tracer = obs.NewTracer(1024)
	}
	return no
}

// emit records an event when tracing is on.
func (no *nodeObs) emit(e obs.Event) {
	if no.tracer != nil {
		no.tracer.Emit(e)
	}
}

// report materializes the telemetry into rep.
func (no *nodeObs) report(rep *NodeReport) {
	rep.Obs = no.stats.Snapshot()
	rep.Obs.SetHistogram(RoundWaitHist, no.wait.Snapshot())
	rep.RoundWaitsNs = no.waits
	if no.tracer != nil {
		rep.Events = no.tracer.Events()
	}
}

// peerBatch is one peer's completed batch for one round, as assembled from
// its chunks by the peer's reader goroutine.
type peerBatch struct {
	peer  types.NodeID
	round int
	msgs  []types.Message
}

// resume is where a (possibly restarted) node's main loop enters the round
// schedule.
type resume struct {
	// round is the first round the loop executes.
	round int
	// skipSend suppresses Step/send for the entry round: the killed
	// incarnation already sent it, and re-sending from restored (or, worse,
	// re-initialized) state would equivocate against the original claims.
	skipSend bool
	// inbox carries a restored "closed" boundary's delivered messages into
	// the entry round's Step.
	inbox []types.Message
	// held replays the checkpoint's hold-back buffer.
	held []heldRound
}

// runNode executes one node of the cluster: mesh-connect to the roster,
// drive the protocol's rounds with hold-back and deadline, decide, and
// report. ln must already be listening on the roster address for cfg.ID.
// Progress marks go to progress (nil when the caller does not consume
// them).
func runNode(cfg NodeConfig, ln net.Listener, peers []string, progress io.Writer) (*NodeReport, error) {
	p := core.Params{N: cfg.N, M: cfg.M, U: cfg.U, Sender: cfg.Sender}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(peers) != cfg.N {
		return nil, fmt.Errorf("cluster: roster of %d for N=%d", len(peers), cfg.N)
	}
	if cfg.ID < 0 || int(cfg.ID) >= cfg.N {
		return nil, fmt.Errorf("cluster: node ID %d out of range [0,%d)", int(cfg.ID), cfg.N)
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = 2 * time.Second
	}
	node, err := buildNode(cfg, p)
	if err != nil {
		return nil, err
	}
	rounds := p.Depth()
	rep := &NodeReport{ID: cfg.ID, PerRound: make([]int, rounds)}
	no := newNodeObs(rounds, cfg.Trace)
	var egress round.Expander
	var faulty types.NodeSet
	for _, id := range cfg.Faulty {
		faulty = faulty.Add(id)
	}
	if len(cfg.Injectors) > 0 {
		egress, err = chaos.NewChannel(cfg.Injectors, faulty, chaos.DeriveSeed(cfg.Seed, int64(cfg.ID)+1), &rep.Counters)
		if err != nil {
			return nil, err
		}
	}
	var topo chaos.TopoChannel
	if cfg.Topology != nil {
		topo, err = cfg.Topology.NewChannel(cfg.N, cfg.M, cfg.U, cfg.TopoFaults, faulty)
		if err != nil {
			return nil, err
		}
		// Injectors first (this node's own egress faults), then the sparse
		// network — the same order the in-process executor composes.
		egress = chaos.ComposeEgress(egress, topo)
	}

	st := restoreNode(cfg, node, no, rep, rounds)

	mesh, err := connectMesh(cfg, ln, peers, rounds)
	if err != nil {
		return nil, err
	}
	defer mesh.close()

	hold := newHoldback(cfg.N, cfg.ID, rounds)
	for _, hr := range st.held {
		hold.seed(hr)
	}
	inbox := st.inbox
	for r := st.round; r <= rounds; r++ {
		if !(st.skipSend && r == st.round) {
			out := node.Step(r, inbox)
			if err := sendRound(mesh, cfg, r, out, egress, rep); err != nil {
				return nil, err
			}
			// The node's timeline closes round r's send phase before its
			// delivery opens it: close (A = sends collected) then open
			// (A = delivered).
			no.emit(obs.Event{Kind: obs.EvRoundClose, Node: int16(cfg.ID), Round: int32(r),
				A: int64(rep.PerRound[r-1])})
		}
		saveCheckpoint(cfg, node, hold, no, r, chaos.CrashPhaseSent, nil)
		mark(progress, cfg, r, chaos.CrashPhaseSent)
		inbox = hold.await(mesh.recv, r, cfg.Deadline, no)
		no.emit(obs.Event{Kind: obs.EvRoundOpen, Node: int16(cfg.ID), Round: int32(r),
			A: int64(len(inbox))})
		rep.Delivered += len(inbox)
		for _, m := range inbox {
			rep.Bytes += round.MessageBytes(m)
		}
		if cfg.RecordViews {
			rep.Views = append(rep.Views, inbox...)
		}
		saveCheckpoint(cfg, node, hold, no, r, chaos.CrashPhaseClosed, inbox)
		mark(progress, cfg, r, chaos.CrashPhaseClosed)
	}
	node.Finish(inbox)
	rep.Decision = node.Decide()
	if topo != nil {
		chaos.AddTopoStats(&rep.Counters, topo.Stats())
	}
	no.report(rep)
	return rep, nil
}

// mark prints one progress line when enabled.
func mark(progress io.Writer, cfg NodeConfig, r int, phase string) {
	if progress == nil || !cfg.Progress {
		return
	}
	proc.WriteJSON(progress, progressLine{Progress: r, Phase: phase})
}

// treeHolder is the honest node's handle on its EIG state; checkpoints are
// only written (and restored) for nodes exposing it. Byzantine wrappers do
// not — a crash victim is benign by definition, so the restriction costs
// nothing.
type treeHolder interface{ Tree() *eig.Tree }

// saveCheckpoint snapshots the node's state at a round-phase boundary.
// Failures are deliberately non-fatal: a node that cannot persist still
// participates (it just recovers as "missing" if killed).
func saveCheckpoint(cfg NodeConfig, node round.Node, hold *holdback, no *nodeObs, r int, phase string, inbox []types.Message) {
	if cfg.Checkpoint == "" {
		return
	}
	th, ok := node.(treeHolder)
	if !ok {
		return
	}
	tree, err := th.Tree().Export(nil)
	if err != nil {
		return
	}
	body := &checkpointBody{
		ID: cfg.ID, N: cfg.N, M: cfg.M, U: cfg.U, Sender: cfg.Sender,
		Round: r, Phase: phase, Tree: tree, Inbox: inbox, Held: hold.snapshot(),
	}
	n, err := writeCheckpoint(CheckpointPath(cfg.Checkpoint, cfg.ID), body)
	if err != nil {
		return
	}
	no.stats.Inc(nodeStatCkptWritten)
	no.emit(obs.Event{Kind: obs.EvCheckpoint, Node: int16(cfg.ID), Round: int32(r), A: int64(n)})
}

// restoreNode evaluates the node's checkpoint on a restart and returns the
// resume point. The contract is the self-stabilization half of the crash
// story: a verified checkpoint at or past the launcher's resume boundary is
// imported exactly; anything else — checksum or framing damage, a stale
// recorded round, no file at all — is rejected and the node re-initializes
// V_d-safe at the resume boundary, with every missed round reading as the
// default value (§4 assumption (b) applied to the node's own past). In both
// cases the entry round's send is skipped: the killed incarnation already
// sent it, and re-sending from reconstructed state would equivocate.
func restoreNode(cfg NodeConfig, node round.Node, no *nodeObs, rep *NodeReport, rounds int) resume {
	if cfg.Restart <= 0 {
		return resume{round: 1}
	}
	no.stats.Inc(nodeStatRestart)
	at := cfg.Resume
	if at < 1 {
		at = 1
	}
	if at > rounds {
		at = rounds
	}
	phase := cfg.ResumePhase
	if phase == "" {
		phase = chaos.CrashPhaseSent
	}
	no.emit(obs.Event{Kind: obs.EvRestart, Node: int16(cfg.ID), Round: int32(at),
		A: int64(cfg.Restart)})

	source, code := "missing", obs.RestoreMissing
	ckptRound := -1
	var accepted *checkpointBody
	if cfg.Checkpoint != "" {
		body, err := readCheckpoint(CheckpointPath(cfg.Checkpoint, cfg.ID))
		switch {
		case err != nil && os.IsNotExist(err):
			// keep "missing"
		case err != nil:
			source, code = "corrupt", obs.RestoreCorrupt
		case body.ID != cfg.ID || body.N != cfg.N || body.M != cfg.M ||
			body.U != cfg.U || body.Sender != cfg.Sender:
			source, code = "corrupt", obs.RestoreCorrupt
		case body.Round < at || (body.Round == at &&
			body.Phase == chaos.CrashPhaseSent && phase == chaos.CrashPhaseClosed):
			// The file is intact but records an earlier boundary than the
			// killed incarnation provably reached: state from the wrong
			// point in time.
			source, code, ckptRound = "stale", obs.RestoreStale, body.Round
		case body.Round > rounds:
			source, code, ckptRound = "stale", obs.RestoreStale, body.Round
		default:
			th, ok := node.(treeHolder)
			if ok && th.Tree().Import(body.Tree) == nil {
				source, code, ckptRound = "checkpoint", obs.RestoreCheckpoint, body.Round
				accepted = body
			} else {
				// The eig snapshot failed its own checksum/shape validation;
				// a failed Import leaves the tree untouched (fresh).
				source, code = "corrupt", obs.RestoreCorrupt
			}
		}
	}

	st := resume{}
	lost := 0
	switch {
	case accepted != nil && accepted.Phase == chaos.CrashPhaseClosed:
		st = resume{round: accepted.Round + 1, inbox: accepted.Inbox, held: accepted.Held}
		lost = 0
	case accepted != nil: // "sent": resume at the in-flight round's await
		st = resume{round: accepted.Round, skipSend: true, held: accepted.Held}
		lost = 1 // the in-flight round's inbound was addressed to the dead conn
	case phase == chaos.CrashPhaseClosed: // re-init at the resume boundary
		st = resume{round: at + 1}
		lost = at
	default:
		st = resume{round: at, skipSend: true}
		lost = at
	}
	switch code {
	case obs.RestoreCorrupt:
		no.stats.Inc(nodeStatCkptCorrupt)
	case obs.RestoreStale:
		no.stats.Inc(nodeStatCkptStale)
	case obs.RestoreMissing:
		no.stats.Inc(nodeStatCkptMissing)
	}
	no.emit(obs.Event{Kind: obs.EvRestore, Node: int16(cfg.ID), Round: int32(st.round),
		A: int64(code), B: int64(ckptRound)})
	rep.Recovery = &NodeRecovery{
		Incarnation: cfg.Restart, Source: source, CkptRound: ckptRound,
		ResumeRound: st.round, LostRounds: lost,
	}
	return st
}

// buildNode constructs this process's protocol participant: honest, or
// wrapped with the configured Byzantine strategy exactly as adversary.Wrap
// does in process.
func buildNode(cfg NodeConfig, p core.Params) (round.Node, error) {
	if cfg.Fault == nil {
		return p.NewNode(cfg.ID, cfg.SenderValue)
	}
	strat, err := cfg.Fault.Strategy(cfg.N)
	if err != nil {
		return nil, err
	}
	return adversary.NewNode(cfg.N, p.Depth(), cfg.Sender, cfg.ID, cfg.SenderValue, strat)
}

// sendRound stamps, validates, accounts, injects, and ships one round's
// sends: one RoundBatch per peer, always, so an empty batch is the round's
// positive completion marker.
func sendRound(m *mesh, cfg NodeConfig, r int, out []types.Message, egress round.Expander, rep *NodeReport) error {
	perPeer := make(map[types.NodeID][]types.Message, cfg.N-1)
	for _, msg := range out {
		// Mirror Engine.Collect exactly: stamp the true source and round
		// (assumption c), drop malformed and self-addressed sends, and
		// count before the channel sees the message.
		msg.From = cfg.ID
		msg.Round = r
		if msg.To < 0 || int(msg.To) >= cfg.N || msg.To == msg.From {
			continue
		}
		rep.Messages++
		rep.PerRound[r-1]++
		copies := []types.Message{msg}
		if egress != nil {
			copies = egress.DeliverAll(msg)
		}
		for _, cm := range copies {
			perPeer[cm.To] = append(perPeer[cm.To], cm)
		}
	}
	// The write deadline is a liveness backstop, not the round deadline: a
	// tiny hold-back deadline must time out *receives* (absence), never
	// wedge or fail the sender's own writes.
	writeBound := 10 * time.Second
	if cfg.Deadline > writeBound {
		writeBound = cfg.Deadline
	}
	var buf []byte
	for id, conn := range m.peerConns() {
		buf = buf[:0]
		var err error
		buf, err = wire.AppendRoundBatch(buf, r, perPeer[id])
		if err != nil {
			return err
		}
		conn.SetWriteDeadline(time.Now().Add(writeBound))
		if _, err := conn.Write(buf); err != nil {
			// A peer that severed its connection (crashed, or already past
			// its last round and exited) is a detectable absence on ITS
			// side; it must not fail THIS node's run.
			continue
		}
	}
	return nil
}

// readPeer assembles one peer's frames into complete per-round batches. It
// exits on any read error; the peer's subsequent rounds then simply miss
// their deadlines — a crashed process is a detectable absence, not a hang.
// A peer whose unfinished batch names a round outside the run, or outgrows
// maxUnfinished, is Byzantine: its connection is dropped, so what it sends
// can never grow this node's memory without bound.
func (m *mesh) readPeer(id types.NodeID, conn net.Conn) {
	br := bufio.NewReader(conn)
	partial := make(map[int][]types.Message)
	var frame []byte
	for {
		payload, err := wire.ReadFrameInto(br, frame)
		if err != nil {
			return
		}
		frame = payload
		r, msgs, last, err := wire.DecodeRoundBatch(payload)
		if err != nil {
			return
		}
		for i := range msgs {
			msgs[i].From = id // assumption (c): identity comes from the connection
		}
		if !last {
			if r < 1 || r > m.rounds || len(partial[r])+len(msgs) > maxUnfinished(m.n, r) {
				conn.Close()
				return
			}
			partial[r] = append(partial[r], msgs...)
			continue
		}
		batch := append(partial[r], msgs...)
		delete(partial, r)
		m.recv <- peerBatch{peer: id, round: r, msgs: batch}
	}
}

// maxUnfinished bounds the messages one peer's round-r batch may hold
// before its last chunk. An honest relay sends this node one message per
// path of r nodes from the sender to the relay, at most P(n-2, r-2) of
// them; the bound allows n copies of each (routing over disjoint paths and
// duplicating injectors hand over several) and never less than one full
// frame carries (a message is at least 10 bytes after the 13-byte chunk
// header).
func maxUnfinished(n, r int) int {
	paths := 1
	for k := 0; k < r-2 && paths < 1<<30; k++ {
		paths *= n - 2 - k
	}
	return max(n*paths, (wire.MaxFrame-13)/10)
}

// holdback buffers future-round batches and closes each round at its
// deadline: the per-round realization of §4 assumption (b).
type holdback struct {
	n      int
	self   types.NodeID
	rounds int
	// byRound[r] accumulates messages of completed round-r batches;
	// doneBy[r] the peers whose batch for r has completed.
	byRound map[int][]types.Message
	doneBy  map[int]map[types.NodeID]bool
}

func newHoldback(n int, self types.NodeID, rounds int) *holdback {
	return &holdback{
		n: n, self: self, rounds: rounds,
		byRound: make(map[int][]types.Message),
		doneBy:  make(map[int]map[types.NodeID]bool),
	}
}

// accept files one completed batch, returning whether it was timely (its
// round is r or later).
func (h *holdback) accept(b peerBatch, r int) bool {
	if b.round < r || b.round > h.rounds {
		return false // late (its round already closed) or out of range
	}
	if h.doneBy[b.round] == nil {
		h.doneBy[b.round] = make(map[types.NodeID]bool, h.n-1)
	}
	if h.doneBy[b.round][b.peer] {
		return false // duplicate round batch from a Byzantine peer
	}
	h.doneBy[b.round][b.peer] = true
	h.byRound[b.round] = append(h.byRound[b.round], b.msgs...)
	return true
}

// seed replays one checkpointed hold-back round: batches that had completed
// before the crash re-enter the buffer, so a restored node does not lose
// early-arriving future rounds a second time.
func (h *holdback) seed(hr heldRound) {
	if hr.Round < 1 || hr.Round > h.rounds || h.doneBy[hr.Round] != nil {
		return
	}
	done := make(map[types.NodeID]bool, len(hr.Peers))
	for _, p := range hr.Peers {
		if p >= 0 && int(p) < h.n && p != h.self {
			done[p] = true
		}
	}
	h.doneBy[hr.Round] = done
	h.byRound[hr.Round] = hr.Msgs
}

// snapshot captures the buffered future rounds for a checkpoint, in round
// order.
func (h *holdback) snapshot() []heldRound {
	var out []heldRound
	for r := 1; r <= h.rounds; r++ {
		done := h.doneBy[r]
		if len(done) == 0 {
			continue
		}
		hr := heldRound{Round: r, Msgs: h.byRound[r]}
		for id := 0; id < h.n; id++ {
			if done[types.NodeID(id)] {
				hr.Peers = append(hr.Peers, types.NodeID(id))
			}
		}
		out = append(out, hr)
	}
	return out
}

// await drains recv until every peer's round-r batch is in or the deadline
// passes, then returns round r's sorted inbox. Batches for later rounds
// arriving meanwhile are held back; batches for closed rounds count as
// late. Every wait is observed into the round-wait histogram; a deadline
// expiry records one miss plus one V_d substitution per absent peer.
func (h *holdback) await(recv <-chan peerBatch, r int, deadline time.Duration, no *nodeObs) []types.Message {
	start := time.Now()
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	deadlineAt := start.Add(deadline)
	for len(h.doneBy[r]) < h.n-1 {
		// The deadline takes strict priority over ready batches: once it has
		// passed, the round is closed, even if a batch raced in — otherwise
		// the runtime timer's firing lag and select's random choice would
		// make absence detection scheduling-dependent.
		if !time.Now().Before(deadlineAt) {
			goto done
		}
		select {
		case b := <-recv:
			if !h.accept(b, r) {
				no.stats.Inc(nodeStatLate)
				no.emit(obs.Event{Kind: obs.EvLateBatch, Node: int16(b.peer), Round: int32(b.round)})
			}
		case <-timer.C:
			goto done
		}
	}
done:
	wait := time.Since(start)
	no.wait.Observe(wait)
	no.waits = append(no.waits, int64(wait))
	if missing := h.n - 1 - len(h.doneBy[r]); missing > 0 {
		no.stats.Inc(nodeStatDeadlineMiss)
		no.emit(obs.Event{Kind: obs.EvDeadlineMiss, Node: int16(h.self), Round: int32(r),
			A: int64(missing), B: int64(wait)})
		// The protocol will substitute V_d for every absent peer's claims:
		// §4 assumption (b) in action, one event per absent peer in ID order.
		for id := 0; id < h.n; id++ {
			if types.NodeID(id) == h.self || h.doneBy[r][types.NodeID(id)] {
				continue
			}
			no.stats.Inc(nodeStatVdSub)
			no.emit(obs.Event{Kind: obs.EvVdSub, Node: int16(id), Round: int32(r)})
		}
	}
	inbox := h.byRound[r]
	delete(h.byRound, r)
	delete(h.doneBy, r)
	types.SortMessages(inbox)
	return inbox
}

// Dial retry budget: a peer's listener may come up (or come back) a beat
// after ours, so dials back off exponentially with jitter instead of
// failing hard on the first refused connection.
const (
	dialAttempts = 8
	// redialAttempts is the smaller budget for a restarted node's re-dials:
	// its peers' listeners were up before it died, so a refused connection
	// almost always means the peer finished and exited — burn a short retry,
	// not the full launch budget, before tolerating the absence.
	redialAttempts = 4
	dialBackoff    = 25 * time.Millisecond
	dialBackoffMax = time.Second
	helloTimeout   = 10 * time.Second
	meshTimeout    = 30 * time.Second
)

// mesh is one node's connections to every peer, rebindable: a restarted
// peer re-dials with a higher Hello incarnation and its slot is rebound;
// the incarnation comparison makes stale or duplicate hellos inert.
type mesh struct {
	self   types.NodeID
	n      int
	rounds int
	recv   chan peerBatch

	mu     sync.Mutex
	conns  map[types.NodeID]net.Conn
	incs   map[types.NodeID]int
	closed bool
	bound  chan struct{}
}

// peerConns returns a point-in-time copy of the bound connections.
func (m *mesh) peerConns() map[types.NodeID]net.Conn {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[types.NodeID]net.Conn, len(m.conns))
	for id, c := range m.conns {
		out[id] = c
	}
	return out
}

func (m *mesh) count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.conns)
}

// bindAccepted binds an inbound connection for peer id at the given
// incarnation. A slot already bound is rebound only for a strictly newer
// incarnation (closing the old connection); otherwise the hello is stale or
// duplicate and the connection is refused.
func (m *mesh) bindAccepted(id types.NodeID, inc int, conn net.Conn) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false
	}
	if old, ok := m.conns[id]; ok {
		if inc <= m.incs[id] {
			return false
		}
		old.Close()
	}
	m.conns[id] = conn
	m.incs[id] = inc
	go m.readPeer(id, conn)
	select {
	case m.bound <- struct{}{}:
	default:
	}
	return true
}

// bindDialed binds a connection this node dialed itself (always replaces:
// the dial was deliberate — on a restart the old slot is a dead socket).
func (m *mesh) bindDialed(id types.NodeID, conn net.Conn) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		conn.Close()
		return
	}
	if old, ok := m.conns[id]; ok {
		old.Close()
	}
	m.conns[id] = conn
	go m.readPeer(id, conn)
	select {
	case m.bound <- struct{}{}:
	default:
	}
}

func (m *mesh) close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	for _, c := range m.conns {
		c.Close()
	}
}

// acceptLoop accepts mesh connections for the whole run (not just the
// initial exchange): a restarted peer dials back in mid-run with a fresh
// incarnation-tagged Hello. It exits when the listener closes.
func (m *mesh) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go m.handleHello(conn)
	}
}

// handleHello reads a connection's identifying Hello and binds it.
func (m *mesh) handleHello(conn net.Conn) {
	// Read the hello directly from the conn (no bufio): a buffered reader
	// could slurp bytes of the frames that follow and lose them when the
	// per-peer reader takes over.
	conn.SetReadDeadline(time.Now().Add(helloTimeout))
	payload, err := wire.ReadFrame(conn)
	if err != nil {
		conn.Close()
		return
	}
	id, inc, err := wire.DecodeHello(payload)
	if err != nil || id == m.self || int(id) >= m.n || id < 0 {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	if !m.bindAccepted(id, inc, conn) {
		conn.Close()
	}
}

// dialPeer dials one peer and announces this node's identity, with bounded
// jittered exponential backoff: a briefly unreachable peer (its listener a
// beat behind, or itself mid-restart) is retried, not a fatal error.
func dialPeer(addr string, self types.NodeID, inc, attempts int) (net.Conn, error) {
	hello, err := wire.AppendHelloInc(nil, self, inc)
	if err != nil {
		return nil, err
	}
	backoff := dialBackoff
	for attempt := 1; ; attempt++ {
		conn, err := net.DialTimeout("tcp", addr, helloTimeout)
		if err == nil {
			if _, werr := conn.Write(hello); werr == nil {
				return conn, nil
			} else {
				conn.Close()
				err = werr
			}
		}
		if attempt >= attempts {
			return nil, err
		}
		// Full jitter in [backoff/2, backoff*3/2): concurrent redials from
		// many nodes must not stampede in lockstep.
		time.Sleep(backoff/2 + time.Duration(rand.Int63n(int64(backoff))))
		backoff *= 2
		if backoff > dialBackoffMax {
			backoff = dialBackoffMax
		}
	}
}

// connectMesh builds the node's side of the full mesh. On first launch,
// node i dials every j < i (announcing itself with a Hello) and waits for
// every j > i to dial in, the classic dial-low/accept-high split. On a
// restart the split no longer works — live peers have no reason to re-dial
// a node they never saw die — so the restarted node dials *every* peer with
// its incarnation-tagged Hello and waits for no one; a peer that already
// finished and exited is tolerated as a detectable absence.
func connectMesh(cfg NodeConfig, ln net.Listener, peers []string, rounds int) (*mesh, error) {
	self := cfg.ID
	m := &mesh{
		self: self, n: len(peers), rounds: rounds,
		// recv is sized for every batch of the whole run (with slack for
		// rebound connections re-delivering) so reader goroutines never
		// block on a slow main loop.
		recv:  make(chan peerBatch, 4*len(peers)*(rounds+2)),
		conns: make(map[types.NodeID]net.Conn, len(peers)-1),
		incs:  make(map[types.NodeID]int, len(peers)-1),
		bound: make(chan struct{}, len(peers)),
	}
	go m.acceptLoop(ln)
	if cfg.Restart > 0 {
		// Restart: re-dial every peer concurrently — each dial either binds
		// fast (the peer is alive) or exhausts its short budget (the peer
		// finished and exited, a tolerated absence), and one dead peer must
		// not stall rejoining the rest of the mesh.
		var wg sync.WaitGroup
		for j := 0; j < len(peers); j++ {
			if j == int(self) {
				continue
			}
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				conn, err := dialPeer(peers[j], self, cfg.Restart, redialAttempts)
				if err != nil {
					return // a finished (or dead) peer: its rounds read as absent
				}
				m.bindDialed(types.NodeID(j), conn)
			}(j)
		}
		wg.Wait()
		return m, nil
	}
	for j := 0; j < int(self); j++ {
		conn, err := dialPeer(peers[j], self, 0, dialAttempts)
		if err != nil {
			m.close()
			return nil, fmt.Errorf("cluster: dial %d: %w", j, err)
		}
		m.bindDialed(types.NodeID(j), conn)
	}
	{
		deadline := time.After(meshTimeout)
		for m.count() < len(peers)-1 {
			select {
			case <-m.bound:
			case <-deadline:
				m.close()
				return nil, fmt.Errorf("cluster: mesh incomplete after %v (%d of %d peers)",
					meshTimeout, m.count(), len(peers)-1)
			}
		}
	}
	return m, nil
}
