package chaos

import (
	"errors"
	"fmt"
	"maps"
	"strconv"
	"strings"
	"sync"

	"degradable/internal/adversary"
	"degradable/internal/core"
	"degradable/internal/round"
	"degradable/internal/runner"
	"degradable/internal/spec"
	"degradable/internal/types"
)

// FaultSpec arms one node with a built-in Byzantine behaviour. It mirrors the
// facade's Fault (the Kind values are shared via internal/adversary), in a
// form the campaign generator and the JSON replay path can serialize.
type FaultSpec struct {
	Node  types.NodeID   `json:"node"`
	Kind  adversary.Kind `json:"kind"`
	Value types.Value    `json:"value,omitempty"`
	Seed  int64          `json:"seed,omitempty"`
}

// ParseFaults parses the command-line fault grammar: comma-separated
// node:kind[:value][:seed] entries, where kind is an adversary.Kind name
// (silent, crash, lie, twofaced, random), value parameterizes lie and
// twofaced, and seed makes a random fault reproducible. The empty string
// arms nothing.
func ParseFaults(s string) ([]FaultSpec, error) {
	if s == "" {
		return nil, nil
	}
	var out []FaultSpec
	for _, entry := range strings.Split(s, ",") {
		parts := strings.Split(entry, ":")
		if len(parts) < 2 {
			return nil, fmt.Errorf("bad fault %q: want node:kind[:value][:seed]", entry)
		}
		node, err := strconv.Atoi(parts[0])
		if err != nil {
			return nil, fmt.Errorf("bad fault node %q: %v", parts[0], err)
		}
		f := FaultSpec{Node: types.NodeID(node)}
		for _, k := range faultKinds {
			if k.String() == parts[1] {
				f.Kind = k
			}
		}
		if f.Kind == 0 {
			return nil, fmt.Errorf("unknown fault kind %q", parts[1])
		}
		if len(parts) > 2 {
			v, err := strconv.ParseInt(parts[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad fault value %q: %v", parts[2], err)
			}
			f.Value = types.Value(v)
		}
		if len(parts) > 3 {
			seed, err := strconv.ParseInt(parts[3], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad fault seed %q: %v", parts[3], err)
			}
			f.Seed = seed
		}
		out = append(out, f)
	}
	return out, nil
}

// Level is the guarantee a scenario is expected to meet.
type Level int

// Expectation levels.
const (
	// LevelAuto derives the level from the scenario's shape (fault count
	// and injector scopes); see the package comment for the model.
	LevelAuto Level = iota
	// LevelFull expects the applicable D.1–D.4 condition and the m+1
	// graceful-degradation observation to hold.
	LevelFull
	// LevelGraceful expects only the m+1 observation (assumption-violating
	// scenarios below the degraded regime).
	LevelGraceful
	// LevelNone expects nothing (f > u).
	LevelNone
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelAuto:
		return "auto"
	case LevelFull:
		return "full-spec"
	case LevelGraceful:
		return "graceful"
	case LevelNone:
		return "none"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Expectation is what a scenario is expected to achieve.
type Expectation struct {
	// Level is the guarantee tier. LevelAuto resolves from the scenario.
	Level Level `json:"level,omitempty"`
	// Condition, when non-empty, additionally pins one named paper
	// condition ("D.1".."D.4") that must hold regardless of the fault
	// count — the mis-bounding knob used to demonstrate the shrinker.
	Condition string `json:"condition,omitempty"`
}

// Scenario is one runnable chaos instance: an agreement configuration, a
// Byzantine fault set, an injector stack, and an expectation.
type Scenario struct {
	N      int          `json:"n"`
	M      int          `json:"m"`
	U      int          `json:"u"`
	Sender types.NodeID `json:"sender,omitempty"`
	// SenderValue is the fault-free sender's input (default harnessValue).
	SenderValue types.Value `json:"senderValue,omitempty"`
	Faults      []FaultSpec `json:"faults,omitempty"`
	Injectors   []Injector  `json:"injectors,omitempty"`
	// Crashes schedules mid-round kill (and usually restart) events; see
	// CrashSpec. Victims count toward the fault budget like Byzantine nodes
	// — their silence is the detectable absence of §4 assumption (b) — and
	// their recovery is additionally judged by the convergence taxonomy when
	// the executor can observe it.
	Crashes []CrashSpec `json:"crashes,omitempty"`
	// Topology, when non-nil, runs the scenario over a sparse physical
	// graph: every delivery is carried by the disjoint-path channel
	// (internal/transport) instead of the perfect complete-graph wire,
	// with the scenario's own Byzantine nodes doubling as corrupt relays.
	// Nil preserves the historical complete-graph behaviour exactly.
	Topology *TopoSpec `json:"topology,omitempty"`
	// Seed drives every injector coin flip of the run.
	Seed   int64       `json:"seed"`
	Expect Expectation `json:"expect,omitempty"`
	// Sched names the asynchronous scheduling policy for DriverAsync
	// scenarios (round.ParsePolicy grammar: fifo, reorder, delay[:K],
	// adversarial, starve:ID), seeded by Seed. Empty means FIFO. Ignored —
	// and left unset, keeping the scenario stream byte-identical — for the
	// synchronous drivers, whose barrier makes intra-round order moot.
	Sched string `json:"sched,omitempty"`
	// Driver records how the scenario's instance was (or should be)
	// executed: "" (the reference schedule), "goroutine" or "sequential"
	// (replay labels kept from earlier reports; both now select the same
	// reference schedule), "cluster" (one OS process per node over
	// loopback TCP), or "async" (the barrier-free A-Cast track under the
	// Sched scheduling policy). The field makes shrinker reproductions
	// self-describing. Run executes the in-process drivers directly; a
	// "cluster" scenario replayed through Run uses the reference schedule as
	// its deterministic in-process surrogate (the judged semantics are
	// identical when round deadlines cause no false absences) — replay
	// across real processes goes through internal/cluster's Executor, as
	// degradable chaos -replay does when the driver field says "cluster". Crash
	// schedules replay under the surrogate as adversary.Crash strategies
	// (honest through the kill round, silent after): the judged verdict
	// matches the cluster's because victims count as faulty either way,
	// while the recovery taxonomy is only observable across real processes.
	Driver string `json:"driver,omitempty"`
}

// Driver names accepted by Scenario.Driver.
const (
	DriverGoroutine  = "goroutine"
	DriverSequential = "sequential"
	DriverCluster    = "cluster"
	DriverAsync      = "async"
)

// harnessValue is the default honest sender value, matching the harness's
// Alpha so rendered reproductions look like the rest of the repo.
const harnessValue types.Value = 1001

// F returns the node-fault count: armed Byzantine nodes plus crash victims
// (validation keeps the two sets disjoint).
func (sc Scenario) F() int { return len(sc.Faults) + len(sc.Crashes) }

// Faulty returns the armed fault set, crash victims included.
func (sc Scenario) Faulty() types.NodeSet {
	var s types.NodeSet
	for _, f := range sc.Faults {
		s = s.Add(f.Node)
	}
	for _, cr := range sc.Crashes {
		s = s.Add(cr.Node)
	}
	return s
}

// bounds returns the (m, u) the scenario is judged under: its own for the
// synchronous drivers, and for the asynchronous track the n > 3f tolerance
// at both, so A-Cast is held to D.1/D.2 wherever it promises agreement.
func (sc Scenario) bounds() (m, u int) {
	if sc.Driver == DriverAsync {
		t := asyncTolerance(sc.N)
		return t, t
	}
	return sc.M, sc.U
}

// relaxed reports whether any injector can suppress fault-free traffic,
// i.e. whether the run leaves the strict §4 assumptions for the §6.1
// relaxed message model.
func (sc Scenario) relaxed() bool {
	for _, in := range sc.Injectors {
		if in.absence() {
			return true
		}
	}
	return false
}

// ResolveLevel returns the concrete expectation level, deriving LevelAuto
// from the scenario shape.
func (sc Scenario) ResolveLevel() Level {
	if sc.Expect.Level != LevelAuto {
		return sc.Expect.Level
	}
	m, u := sc.bounds()
	if sc.Topology != nil && sc.Topology.Loose {
		// Below the Theorem 3 bound κ ≥ m+u+1, faulty relays can forge
		// values between fault-free nodes — outside every assumption the
		// paper's conditions rest on, so nothing is promised.
		if an, err := sc.Topology.analyze(); err == nil && an.Kappa < m+u+1 {
			return LevelNone
		}
	}
	f := sc.F()
	switch {
	case f > u:
		return LevelNone
	case sc.relaxed() && f <= m:
		// Spurious absences below the degraded regime: D.1/D.2 are no
		// longer guaranteed, the m+1 observation still is.
		return LevelGraceful
	default:
		// Within bounds under strict assumptions, or the §6.1 relaxed
		// model in the degraded regime: the paper promises the full spec.
		return LevelFull
	}
}

// Class classifies one scenario outcome.
type Class int

// Outcome classes, from best to worst.
const (
	// SpecHeld: the applicable D condition held, and (within bounds) so
	// did the m+1 graceful-degradation observation.
	SpecHeld Class = iota + 1
	// GracefulOnly: the D condition failed but at least m+1 fault-free
	// nodes still agreed on one value.
	GracefulOnly
	// Violated: neither the condition nor the graceful floor held.
	Violated
	// Infeasible: the parameters fail validation (N ≤ 2m+u, m > u, …).
	Infeasible
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case SpecHeld:
		return "SpecHeld"
	case GracefulOnly:
		return "GracefulOnly"
	case Violated:
		return "Violated"
	case Infeasible:
		return "Infeasible"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// severity orders classes for worst-scenario retention.
func (c Class) severity() int {
	switch c {
	case Violated:
		return 3
	case GracefulOnly:
		return 2
	case SpecHeld:
		return 1
	default: // Infeasible: rejected up front, nothing ran
		return 0
	}
}

// Outcome reports one scenario run.
type Outcome struct {
	Scenario Scenario `json:"scenario"`
	Class    string   `json:"class"`
	// Regime is the fault regime ("classic", "degraded", "beyond-u"), or
	// "invalid" for infeasible parameters.
	Regime string `json:"regime"`
	// Condition, OK, Graceful, Reason mirror the spec verdict.
	Condition string `json:"condition,omitempty"`
	OK        bool   `json:"ok"`
	Graceful  bool   `json:"graceful"`
	Reason    string `json:"reason,omitempty"`
	// Level is the resolved expectation level the outcome was judged by.
	Level string `json:"level"`
	// ExpectationMet reports whether the outcome met the expectation
	// (including any pinned Expect.Condition).
	ExpectationMet bool `json:"expectationMet"`
	// ExpectReason explains a missed expectation.
	ExpectReason string `json:"expectReason,omitempty"`
	// Counters tallies the injections performed.
	Counters Counters `json:"counters"`
	// Messages and Delivered are the engine's traffic counts.
	Messages  int `json:"messages"`
	Delivered int `json:"delivered"`
	// Recovery reports the crash-recovery observations when the executor
	// could make them (the cluster driver; the in-process surrogate leaves
	// it nil).
	Recovery *RecoveryInfo `json:"recovery,omitempty"`
	// Convergence is the crash-recovery taxonomy label —
	// "Converged-in-k-rounds" or "NeverConverged" — alongside the D.1–D.4
	// verdict. Empty when no recovery was observable.
	Convergence string `json:"convergence,omitempty"`
	// Topo reports the topology analysis (connectivity margin, classic-BA
	// baseline, channel traffic) when the scenario ran over a sparse graph.
	Topo *TopoReport `json:"topo,omitempty"`
	// Async reports the asynchronous-track observations (termination
	// verdict, deliveries-to-decision, certificate traffic) for DriverAsync
	// scenarios; nil for every synchronous driver.
	Async *AsyncInfo `json:"async,omitempty"`

	class Class
}

// ClassValue returns the typed class (Class is rendered as a string in the
// JSON form to keep reports self-describing).
func (o *Outcome) ClassValue() Class { return o.class }

// ExecOutcome is the raw result of executing a scenario's agreement
// instance under some driver: decisions, traffic accounting, and the
// injection tallies. Judging against the paper's conditions is shared by
// every driver (see Scenario.RunWith); only execution differs.
type ExecOutcome struct {
	Decisions map[types.NodeID]types.Value
	Messages  int
	Delivered int
	Counters  Counters
	// Recovery carries crash-recovery observations from executors that can
	// kill and respawn real processes; in-process drivers leave it nil.
	Recovery *RecoveryInfo
	// Async carries the asynchronous track's observations; only the
	// in-process DriverAsync executor sets it.
	Async *AsyncInfo
}

// Executor runs a (validated, feasible) scenario's agreement instance and
// returns the raw outcome. The in-process drivers, DriverAsync included,
// are built in; the cluster driver in internal/cluster provides an
// Executor that spawns one OS process per node (synchronous scenarios
// only), which is how chaos campaigns run cross-process without this
// package importing a concrete driver.
type Executor func(Scenario) (*ExecOutcome, error)

// Run executes the scenario in process and judges the outcome. Invalid
// parameters produce an Infeasible outcome, not an error; errors are
// reserved for malformed scenarios (duplicate faults, bad injectors,
// out-of-range nodes).
func (sc Scenario) Run() (*Outcome, error) { return sc.RunWith(nil) }

// RunWith is Run with a pluggable executor (nil means in-process, honoring
// sc.Driver). Validation, feasibility classification, and the judging of
// the executor's raw outcome against D.1–D.4, the §2 m+1 floor, and the
// scenario's expectation are identical for every executor.
func (sc Scenario) RunWith(exec Executor) (*Outcome, error) {
	if sc.SenderValue == 0 {
		sc.SenderValue = harnessValue
	}
	out := &Outcome{Scenario: sc, Level: sc.ResolveLevel().String()}
	switch err := sc.validate(); {
	case errors.Is(err, core.ErrInfeasible) || errors.Is(err, core.ErrTooFewNodes):
		out.class = Infeasible
		out.Class = Infeasible.String()
		out.Regime = "invalid"
		out.Reason = err.Error()
		// Rejecting an infeasible instance is the expected behaviour.
		out.ExpectationMet = true
		return out, nil
	case err != nil:
		return nil, err // out-of-range sender etc.: a malformed scenario
	}
	if sc.Topology != nil {
		rep, err := sc.Topology.Report(sc.N, sc.M, sc.U, sc.F())
		if err != nil {
			return nil, err
		}
		out.Topo = rep
	}
	if exec == nil {
		exec = inProcess
	}
	eo, err := exec(sc)
	if err != nil {
		return nil, err
	}

	m, u := sc.bounds()
	execution := spec.Execution{
		M: m, U: u,
		Sender:      sc.Sender,
		SenderValue: sc.SenderValue,
		Faulty:      sc.Faulty(),
		Decisions:   eo.Decisions,
	}
	verdict := spec.Check(execution)
	out.Regime = verdict.Regime.String()
	out.Condition = verdict.Condition
	if a := eo.Async; a != nil {
		// The §2 floor counts nodes that decided, so a run that ended
		// before every fault-free node decided is not held to it.
		if a.Verdict == notTerminated {
			verdict.Graceful = true
		}
		if !verdict.OK {
			a.SafetyViolations = 1
		}
		out.Async = a
		out.Level = "async"
		out.Regime = "async"
		if verdict.Regime == spec.RegimeBeyond {
			out.Regime = "async-beyond"
		}
		out.Condition = a.Verdict
	}
	out.OK = verdict.OK
	out.Graceful = verdict.Graceful
	out.Reason = verdict.Reason
	out.Messages = eo.Messages
	out.Delivered = eo.Delivered
	out.Counters = eo.Counters
	if out.Topo != nil {
		out.Topo.Degraded = eo.Counters.Degraded
		out.Topo.Hops = eo.Counters.Hops
		if eo.Messages > 0 {
			out.Topo.HopsPerLogical = float64(eo.Counters.Hops) / float64(eo.Messages)
		}
	}
	if eo.Recovery != nil {
		out.Recovery = eo.Recovery
		out.Convergence = eo.Recovery.Label()
	}
	out.class = classify(verdict, sc.F(), u)
	out.Class = out.class.String()
	out.ExpectationMet, out.ExpectReason = sc.judge(out, execution)
	return out, nil
}

// validate rejects malformed scenarios identically for every executor; an
// infeasible parameter set is reported as core.ErrInfeasible or
// core.ErrTooFewNodes.
func (sc Scenario) validate() error {
	if sc.Driver == DriverAsync {
		return sc.validateAsync()
	}
	if err := (core.Params{N: sc.N, M: sc.M, U: sc.U, Sender: sc.Sender}).Validate(); err != nil {
		return err
	}
	if err := sc.validateFaults(); err != nil {
		return err
	}
	return sc.ValidateCrashes()
}

// validateFaults rejects malformed fault sets early, identically for every
// executor.
func (sc Scenario) validateFaults() error {
	var seen types.NodeSet
	for _, f := range sc.Faults {
		if f.Node < 0 || int(f.Node) >= sc.N {
			return fmt.Errorf("chaos: fault node %d out of range [0,%d)", int(f.Node), sc.N)
		}
		if seen.Contains(f.Node) {
			return fmt.Errorf("chaos: node %d armed twice", int(f.Node))
		}
		seen = seen.Add(f.Node)
	}
	return nil
}

// inProcess is the built-in executor: every synchronous driver name runs
// the reference schedule (a "cluster" scenario replayed here included — see
// the Driver field's doc), and DriverAsync runs A-Cast (runAsync).
func inProcess(sc Scenario) (*ExecOutcome, error) {
	switch sc.Driver {
	case "", DriverGoroutine, DriverSequential, DriverCluster:
	case DriverAsync:
		return runAsync(sc)
	default:
		return nil, fmt.Errorf("chaos: unknown driver %q", sc.Driver)
	}
	// The run borrows a warm instance of its shape and its injector layers'
	// random sources and hands them back on every return path.
	shape := core.Params{N: sc.N, M: sc.M, U: sc.U, Sender: sc.Sender}
	v, ok := warmPools.Load(shape)
	if !ok {
		v, _ = warmPools.LoadOrStore(shape, new(sync.Pool))
	}
	wp := v.(*sync.Pool)
	w, _ := wp.Get().(*runner.Warm)
	var err error
	if w == nil {
		if w, err = runner.NewWarm(shape); err != nil {
			return nil, err
		}
	}
	var ch *chain
	defer func() {
		if ch != nil {
			ch.release()
		}
		wp.Put(w)
	}()
	faults := make([]runner.Fault, 0, sc.F())
	for k, f := range sc.Faults {
		s, err := w.Strategy(k, f.Kind, f.Value, f.Seed)
		if err != nil {
			return nil, err
		}
		faults = append(faults, runner.Fault{Node: f.Node, Strategy: s})
	}
	// Crash victims: honest through the kill round's sends, silent after —
	// the in-process surrogate for a SIGKILLed process whose recovery the
	// surrogate cannot observe (see Scenario.Driver).
	for _, cr := range sc.Crashes {
		faults = append(faults, runner.Fault{Node: cr.Node, Strategy: adversary.Crash{After: cr.Round}})
	}
	eo := &ExecOutcome{}
	var channel round.Channel
	var topo TopoChannel
	if sc.Topology != nil {
		if topo, err = sc.Topology.NewChannel(sc.N, sc.M, sc.U, sc.Faults, sc.Faulty()); err != nil {
			return nil, err
		}
	}
	var inj round.Expander
	if len(sc.Injectors) > 0 {
		if ch, err = buildChannel(sc.Injectors, sc.Faulty(), sc.Seed, &eo.Counters); err != nil {
			return nil, err
		}
		inj, channel = ch, ch
	}
	if topo != nil {
		// Injectors first (a node's own egress faults), then the sparse
		// network — the same composition the cluster driver applies per
		// node process.
		channel = ComposeEgress(inj, topo)
	}
	res, err := w.Run(sc.SenderValue, faults, channel)
	if err != nil {
		return nil, err
	}
	// The result is the warm instance's until its next run: RunWith judges
	// a copy.
	eo.Decisions = maps.Clone(res.Decisions)
	eo.Messages = res.Messages
	eo.Delivered = res.Delivered
	if topo != nil {
		AddTopoStats(&eo.Counters, topo.Stats())
	}
	return eo, nil
}

// warmPools holds the in-process executor's idle warm instances, one
// sync.Pool per shape (core.Params → *sync.Pool), so concurrent
// Scenario.Run calls each borrow their own and a shape's complement is
// built once, not once per run.
var warmPools sync.Map

// classify maps a verdict to an outcome class. Beyond u the spec promises
// nothing, so any outcome is SpecHeld; within bounds a condition that held
// without the graceful floor would contradict the §2 Observation and counts
// as Violated.
func classify(v spec.Verdict, f, u int) Class {
	switch {
	case v.OK && (f > u || v.Graceful):
		return SpecHeld
	case v.Graceful && f <= u:
		return GracefulOnly
	default:
		return Violated
	}
}

// judge evaluates the resolved expectation against the classified outcome.
func (sc Scenario) judge(out *Outcome, exec spec.Execution) (bool, string) {
	if sc.Expect.Condition != "" {
		ok, reason := spec.CheckCondition(sc.Expect.Condition, exec)
		if !ok {
			return false, fmt.Sprintf("pinned condition %s failed: %s", sc.Expect.Condition, reason)
		}
	}
	if ok, reason := sc.judgeRecovery(out.Recovery); !ok {
		return false, reason
	}
	switch sc.ResolveLevel() {
	case LevelFull:
		if out.class != SpecHeld {
			return false, fmt.Sprintf("expected full spec, got %s (%s)", out.Class, out.Reason)
		}
	case LevelGraceful:
		if out.class != SpecHeld && out.class != GracefulOnly {
			return false, fmt.Sprintf("expected graceful floor, got %s (%s)", out.Class, out.Reason)
		}
	case LevelNone:
		// Nothing promised.
	}
	return true, ""
}
