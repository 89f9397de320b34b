package chaos

import (
	"fmt"
	"math/rand"

	"degradable/internal/acast"
	"degradable/internal/adversary"
	"degradable/internal/obs"
	"degradable/internal/rng"
	"degradable/internal/round"
	"degradable/internal/spec"
	"degradable/internal/stats"
	"degradable/internal/types"
)

// The asynchronous chaos axis: DriverAsync scenarios run Bracha A-Cast of
// the sender's value under a seeded scheduling policy (the Sched field),
// with the scenario's Byzantine nodes perverting their certificate traffic.
// There are no rounds and no deadlines, but the judge is the synchronous
// drivers' one (Scenario.RunWith), with m = u = the n > 3f tolerance:
//
//   - safety — D.1 or D.2 over the fault-free nodes that decided — must
//     hold under EVERY schedule, including adversarial reordering and
//     targeted starvation;
//   - termination is only a verdict, never a requirement: a run that ends
//     with certificates withheld is labelled "NotTerminated" (in place of
//     the synchronous D.1–D.4 condition label) and is not held to the §2
//     floor, and a completed one "Terminated-after-k-deliveries".
//
// Scenarios are generated, recorded, replayed, and shrunk exactly like
// every other axis; the scenario seed drives both the policy's coin flips
// and the Byzantine value draws, so a repro replays its schedule
// byte-for-byte.

// asyncTolerance is the Byzantine tolerance of the asynchronous track for
// a system of n nodes: the largest f with n > 3f.
func asyncTolerance(n int) int {
	if n <= 1 {
		return 0
	}
	return (n - 1) / 3
}

// AsyncInfo is the asynchronous block of an Outcome.
type AsyncInfo struct {
	// Verdict is "Terminated-after-k-deliveries" (k = total deliveries
	// when the last awaited node decided) or "NotTerminated".
	Verdict string `json:"verdict"`
	// Sched echoes the scheduling policy the run used ("" = fifo).
	Sched string `json:"sched,omitempty"`
	// Tolerance is the n > 3f bound the scenario was judged under (its m
	// and u; see Scenario.bounds).
	Tolerance int `json:"tolerance"`
	// Deliveries is the total number of message deliveries performed.
	Deliveries int `json:"deliveries"`
	// Decided counts fault-free nodes that A-Cast-delivered and decided.
	Decided int `json:"decided"`
	// Starved marks a run ended by the policy withholding queued sends.
	Starved bool `json:"starved,omitempty"`
	// SafetyViolations is 1 when the spec condition failed — D.1 or D.2 at
	// m = u = Tolerance, over the fault-free nodes that decided — and 0
	// otherwise. Within tolerance it must be 0 under any schedule; beyond
	// it nothing is promised and it reads 0, as OK reads true.
	SafetyViolations int `json:"safetyViolations"`
	// DTDMax is the largest deliveries-to-decision among decided nodes.
	DTDMax int `json:"dtdMax,omitempty"`
	// EchoTotal/ReadyTotal/CertTotal are the acast_* counter totals:
	// echo and ready broadcasts sent, delivery certificates assembled.
	EchoTotal  uint64 `json:"echoTotal"`
	ReadyTotal uint64 `json:"readyTotal"`
	CertTotal  uint64 `json:"certTotal"`
}

// notTerminated is the termination verdict of a run that ended before
// every fault-free node decided.
const notTerminated = "NotTerminated"

// validateAsync rejects DriverAsync scenarios the A-Cast track cannot run.
func (sc Scenario) validateAsync() error {
	if sc.N <= 0 || sc.N > int(types.MaxNodeSetID) {
		return fmt.Errorf("chaos: async scenario needs 0 < n ≤ %d, got %d", int(types.MaxNodeSetID), sc.N)
	}
	if len(sc.Injectors) > 0 || len(sc.Crashes) > 0 || sc.Topology != nil {
		return fmt.Errorf("chaos: async scenarios support faults and scheds only (injectors/crashes/topology are round-shaped axes)")
	}
	if sc.Sender < 0 || int(sc.Sender) >= sc.N {
		return fmt.Errorf("chaos: sender %d out of range [0,%d)", int(sc.Sender), sc.N)
	}
	_, err := adversary.CheckFaults(sc.N, sc.Faults)
	return err
}

// runAsync executes a (validated) DriverAsync scenario: Bracha A-Cast of
// the sender's value under the scenario's scheduling policy. RunWith judges
// the decisions like every other driver's.
func runAsync(sc Scenario) (*ExecOutcome, error) {
	policy, err := round.ParsePolicy(sc.Sched, sc.Seed)
	if err != nil {
		return nil, err
	}
	// asyncTolerance keeps n > 3f by construction, so the quorum
	// parameters are always instantiable.
	fTol, _ := sc.bounds()
	p := acast.Params{N: sc.N, F: fTol}
	if err := p.Validate(); err != nil {
		return nil, err
	}

	counters := obs.NewCounterSet(acast.CounterNames...)
	faulty := sc.Faulty()
	nodes := make([]round.AsyncNode, sc.N)
	var honest types.NodeSet
	for i := 0; i < sc.N; i++ {
		id := types.NodeID(i)
		inner := acast.NewNode(acast.Config{
			ID: id, Params: p,
			Broadcasters: types.NewNodeSet(sc.Sender),
			Input:        sc.SenderValue,
			Counters:     counters,
		})
		if faulty.Contains(id) {
			nodes[i] = newAsyncByzantine(inner, sc.faultFor(id), sc.N, sc.Seed)
		} else {
			nodes[i] = inner
			honest = honest.Add(id)
		}
	}

	res, err := round.RunAsync(nodes, round.AsyncConfig{Policy: policy, WaitFor: honest})
	if err != nil {
		return nil, err
	}
	info := &AsyncInfo{
		Verdict: notTerminated,
		Sched:   sc.Sched, Tolerance: fTol,
		Deliveries: res.Delivered,
		Starved:    res.Starved,
		EchoTotal:  counters.Get(acast.CounterEcho),
		ReadyTotal: counters.Get(acast.CounterReady),
		CertTotal:  counters.Get(acast.CounterCert),
	}
	if res.Terminated {
		info.Verdict = fmt.Sprintf("Terminated-after-%d-deliveries", res.Delivered)
	}
	for id := range res.Decisions {
		if faulty.Contains(id) {
			continue
		}
		info.Decided++
		info.DTDMax = max(info.DTDMax, res.DeliveriesToDecision[id])
	}
	return &ExecOutcome{
		Decisions: res.Decisions,
		Messages:  res.Messages,
		Delivered: res.Delivered,
		Async:     info,
	}, nil
}

// faultFor returns node id's fault spec (zero value when unarmed).
func (sc Scenario) faultFor(id types.NodeID) adversary.FaultSpec {
	for _, f := range sc.Faults {
		if f.Node == id {
			return f
		}
	}
	return adversary.FaultSpec{Node: id}
}

// asyncByzantine perverts an A-Cast participant's certificate traffic
// according to its armed adversary kind: the asynchronous counterparts of
// the synchronous strategy set. The inner honest machinery still tracks
// quorums (so the node's sends are shaped like real protocol traffic);
// only what leaves the node is corrupted.
type asyncByzantine struct {
	inner *acast.Node
	fault adversary.FaultSpec
	n     int
	rng   *rand.Rand
	seen  int // deliveries ingested (the crash clock)
}

func newAsyncByzantine(inner *acast.Node, f adversary.FaultSpec, n int, scSeed int64) *asyncByzantine {
	b := &asyncByzantine{inner: inner, fault: f, n: n}
	if f.Kind == adversary.KindRandom {
		seed := f.Seed
		if seed == 0 {
			seed = mix(scSeed, int64(f.Node)+1)
		}
		b.rng = rng.Get(seed)
	}
	return b
}

func (b *asyncByzantine) ID() types.NodeID { return b.inner.ID() }

// Release implements round.Releaser: the inner node's buffers and the
// random kind's pooled source go back. The wrapper serves one run.
func (b *asyncByzantine) Release() {
	b.inner.Release()
	if b.rng != nil {
		rng.Put(b.rng)
		b.rng = nil
	}
}

// Decided always reports true: a Byzantine node never gates termination
// (the run's WaitFor set is the honest complement anyway).
func (b *asyncByzantine) Decided() (types.Value, bool) { return 0, true }

func (b *asyncByzantine) Start() []types.Message {
	if b.fault.Kind == adversary.KindSilent {
		return nil
	}
	return b.mutate(b.inner.Start())
}

func (b *asyncByzantine) OnDeliver(m types.Message) []types.Message {
	b.seen++
	switch b.fault.Kind {
	case adversary.KindSilent:
		return nil
	case adversary.KindCrash:
		// Crash in the asynchronous model: honest for the first n
		// deliveries' worth of participation, silent after — there is no
		// round to crash at, so the delivery clock stands in.
		if b.seen > b.n {
			return nil
		}
	}
	return b.mutate(b.inner.OnDeliver(m))
}

// mutate rewrites the values of outgoing certificate traffic per the
// adversary kind (lie: uniform forgery; twofaced: forgery to the upper half
// of the system; random: seeded coin per message). The rewrite is in place:
// out is the inner node's own send buffer, borrowed under round.AsyncNode's
// rule, which lets a caller mutate it and hand it on — the run copies each
// send out before the next call into this node reuses the buffer.
func (b *asyncByzantine) mutate(out []types.Message) []types.Message {
	forged := b.fault.Value
	if forged == 0 {
		forged = lieValues[0]
	}
	for i := range out {
		switch b.fault.Kind {
		case adversary.KindLie:
			out[i].Value = forged
		case adversary.KindTwoFaced:
			if int(out[i].To) >= b.n/2 {
				out[i].Value = forged
			}
		case adversary.KindRandom:
			if b.rng.Intn(2) == 0 {
				out[i].Value = forged + types.Value(b.rng.Intn(3))
			}
		}
	}
	return out
}

var (
	_ round.AsyncNode = (*asyncByzantine)(nil)
	_ round.Releaser  = (*asyncByzantine)(nil)
)

// AsyncAxis switches a campaign onto the asynchronous track: every
// generated scenario becomes a DriverAsync A-Cast run under a policy drawn
// from the scheduler pool, with Byzantine draws capped at the n > 3f
// tolerance so a healthy campaign is provably violation-free (beyond-
// tolerance exploration belongs to targeted tests, not sweeps that gate
// CI). The axis replaces the round-shaped dimensions (injectors, crashes,
// topology) rather than composing with them.
type AsyncAxis struct {
	// Scheds is the scheduling-policy pool (round.ParsePolicy grammar;
	// starve draws a fault-free target per scenario). Default: fifo,
	// reorder, delay, adversarial, starve.
	Scheds []string `json:"scheds,omitempty"`
	// MaxFaults caps the per-scenario Byzantine draw; 0 (and anything
	// larger) means the tolerance (n−1)/3.
	MaxFaults int `json:"maxFaults,omitempty"`
}

// defaultScheds is the generator's scheduler pool.
var defaultScheds = []string{
	round.SchedFIFO, round.SchedReorder, round.SchedDelay,
	round.SchedAdversarial, round.SchedStarve,
}

// generateAsync draws scenario i of an async-axis campaign. It consumes
// the same per-scenario rng as the synchronous generator (the axis is all
// or nothing, so flat campaigns replay their historical streams unchanged).
func (c Campaign) generateAsync(rng *rand.Rand, gp GridPoint) Scenario {
	n := gp.N
	fTol := asyncTolerance(n)
	sc := Scenario{
		N: n, M: gp.M, U: gp.U,
		SenderValue: harnessValue,
		Seed:        rng.Int63(),
		Driver:      DriverAsync,
	}

	scheds := c.Async.Scheds
	if len(scheds) == 0 {
		scheds = defaultScheds
	}
	sched := scheds[rng.Intn(len(scheds))]

	// Byzantine draw, capped at tolerance: the async sweep is a safety
	// gate, so every generated scenario must be one the quorum argument
	// covers.
	maxF := fTol
	if c.Async.MaxFaults > 0 && c.Async.MaxFaults < maxF {
		maxF = c.Async.MaxFaults
	}
	f := rng.Intn(maxF + 1)
	perm := rng.Perm(n)
	for _, node := range perm[:f] {
		fault := adversary.FaultSpec{
			Node: types.NodeID(node),
			Kind: faultKinds[rng.Intn(len(faultKinds))],
		}
		switch fault.Kind {
		case adversary.KindLie, adversary.KindTwoFaced:
			fault.Value = lieValues[rng.Intn(len(lieValues))]
		case adversary.KindRandom:
			fault.Value = lieValues[rng.Intn(len(lieValues))]
			fault.Seed = rng.Int63()
		}
		sc.Faults = append(sc.Faults, fault)
	}

	// Starvation targets a fault-free node — starving a Byzantine node
	// proves nothing — and the spec records the concrete target so the
	// scenario replays without re-deriving it. perm[f:] is exactly the
	// unarmed remainder (f ≤ (n−1)/3 < n, so it is never empty).
	if sched == round.SchedStarve {
		sched = fmt.Sprintf("%s:%d", round.SchedStarve, perm[f])
	}
	sc.Sched = sched
	if sched == round.SchedFIFO {
		sc.Sched = "" // canonical empty form
	}
	return sc
}

// AsyncTally is the asynchronous block of a campaign report.
type AsyncTally struct {
	// Terminated / NotTerminated split the executed async scenarios by
	// verdict; Starved counts the NotTerminated runs ended by a
	// withholding policy specifically.
	Terminated    int `json:"terminated"`
	NotTerminated int `json:"notTerminated"`
	Starved       int `json:"starved,omitempty"`
	// SafetyViolations counts the scenarios whose spec condition failed
	// (see AsyncInfo.SafetyViolations) — zero for any within-tolerance
	// campaign.
	SafetyViolations int `json:"safetyViolations"`
	// CertTotal accumulates delivery certificates across the campaign.
	CertTotal uint64 `json:"certTotal"`
}

// AsyncSweepRow is one scheduler's row of the async benchmark.
type AsyncSweepRow struct {
	Sched string `json:"sched"`
	Runs  int    `json:"runs"`
	// Deliveries-to-decision percentiles across every deciding node of
	// every run: the asynchronous latency measure (there are no rounds).
	DTDp50 float64 `json:"dtd_p50"`
	DTDp95 float64 `json:"dtd_p95"`
	DTDp99 float64 `json:"dtd_p99"`
	// Certificate traffic totals across the row's runs.
	EchoTotal  uint64 `json:"echo_total"`
	ReadyTotal uint64 `json:"ready_total"`
	CertTotal  uint64 `json:"cert_total"`
	// Terminated/NotTerminated verdict counts and the safety gate: the
	// runs whose decisions failed spec.Check's D.1.
	Terminated       int `json:"terminated"`
	NotTerminated    int `json:"not_terminated"`
	SafetyViolations int `json:"safety_violations"`
}

// AsyncBench is the degradable chaos -async-sweep document: FIFO versus adversarial
// scheduling over identical seeded fault-free A-Cast workloads — how much
// latency (in deliveries) the worst-case schedule costs, and the evidence
// that safety never paid for it.
type AsyncBench struct {
	Seed int64           `json:"seed"`
	Runs int             `json:"runs"`
	Grid []int           `json:"grid"`
	Rows []AsyncSweepRow `json:"schedulers"`
}

// AsyncSweep runs the FIFO-versus-adversarial benchmark: runs scenarios
// per scheduler, system sizes cycling over grid n ∈ {4,5,6,7}, fault-free
// single-broadcaster A-Cast, identical seeds across schedulers so the rows
// differ only in scheduling.
func AsyncSweep(seed int64, runs int) (*AsyncBench, error) {
	if runs <= 0 {
		runs = 200
	}
	grid := []int{4, 5, 6, 7}
	bench := &AsyncBench{Seed: seed, Runs: runs, Grid: grid}
	for _, sched := range []string{round.SchedFIFO, round.SchedAdversarial} {
		row := AsyncSweepRow{Sched: sched, Runs: runs}
		var dtd []float64
		counters := obs.NewCounterSet(acast.CounterNames...)
		for i := 0; i < runs; i++ {
			n := grid[i%len(grid)]
			p := acast.Params{N: n, F: asyncTolerance(n)}
			nodes := make([]round.AsyncNode, n)
			for j := 0; j < n; j++ {
				nodes[j] = acast.NewNode(acast.Config{
					ID: types.NodeID(j), Params: p, Input: harnessValue, Counters: counters,
				})
			}
			policy, err := round.ParsePolicy(sched, mix(seed, int64(i)+0x20002))
			if err != nil {
				return nil, err
			}
			res, err := round.RunAsync(nodes, round.AsyncConfig{Policy: policy})
			if err != nil {
				return nil, err
			}
			if res.Terminated {
				row.Terminated++
			} else {
				row.NotTerminated++
			}
			for id := range res.Decisions {
				dtd = append(dtd, float64(res.DeliveriesToDecision[id]))
			}
			if !spec.Check(spec.Execution{M: p.F, U: p.F, SenderValue: harnessValue, Decisions: res.Decisions}).OK {
				row.SafetyViolations++
			}
		}
		s := stats.Summarize(dtd)
		row.DTDp50, row.DTDp95, row.DTDp99 = s.P50, s.P95, s.P99
		row.EchoTotal = counters.Get(acast.CounterEcho)
		row.ReadyTotal = counters.Get(acast.CounterReady)
		row.CertTotal = counters.Get(acast.CounterCert)
		bench.Rows = append(bench.Rows, row)
	}
	return bench, nil
}
