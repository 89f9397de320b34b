package chaos

import (
	"fmt"
	"math/rand"

	"degradable/internal/adversary"
	"degradable/internal/obs"
	"degradable/internal/round"
	"degradable/internal/topology"
	"degradable/internal/transport"
	"degradable/internal/types"
)

// Topology channel modes accepted by TopoSpec.Mode ("" means transport).
// They are validated, recorded labels only: every mode runs the one
// disjoint-path channel (internal/transport). They stay because the
// benchmark module's scenario generator and layer peeler name them, and
// because the campaign axis's mixed-mode coin is an rng draw that keeps
// every topology scenario stream byte-identical.
const (
	TopoModeTransport = "transport"
	TopoModeRouted    = "routed"
)

// Fault-placement strategies recorded on scenarios and selected by the
// campaign's topology axis.
const (
	// PlacementUniform draws fault locations uniformly, as the classic
	// generator always has.
	PlacementUniform = "uniform"
	// PlacementCutset arms a minimum vertex cut first — the Theorem 3
	// necessity adversary, aimed at the graph's weakest separator.
	PlacementCutset = "cutset"
	// PlacementMixed (campaign axis only) flips a seeded coin per scenario.
	PlacementMixed = "mixed"
	// TopoModeMixed (campaign axis only) flips a seeded coin per scenario
	// between the two mode labels.
	TopoModeMixed = "mixed"
)

// TopoSpec pins a scenario to a sparse physical topology: every delivery is
// carried by a disjoint-path channel over the named graph instead of the
// perfect complete-graph wire. The zero value (nil pointer on Scenario)
// preserves the historical complete-graph behaviour exactly.
type TopoSpec struct {
	// Graph is the generator definition, e.g. "harary:4:9" or
	// "hypercube:4" (see topology.ParseSpec for the grammar).
	Graph string `json:"graph"`
	// Removed lists edges deleted from the generated graph — the shrinker's
	// reduction dimension, also usable by hand for near-threshold graphs.
	Removed [][2]int `json:"removed,omitempty"`
	// Mode is a recorded label ("" = TopoModeTransport); it selects no
	// code, since every mode runs the one disjoint-path channel.
	Mode string `json:"mode,omitempty"`
	// Placement records how the fault locations were chosen (descriptive;
	// the faults themselves are pinned in Scenario.Faults).
	Placement string `json:"placement,omitempty"`
	// Loose permits graphs below the Theorem 3 bound κ ≥ m+u+1, routing
	// over however many disjoint paths exist — the lower-bound
	// demonstration switch. Strict mode (the default) refuses to build
	// such channels, which is itself the Theorem 3 necessity check.
	Loose bool `json:"loose,omitempty"`
}

// TopoChannel is what a topology spec materializes: a round.Channel with
// unified-snapshot accounting, satisfied by transport.Channel. It stays an
// interface because the benchmark module's layer peeler names it.
type TopoChannel interface {
	round.Channel
	Stats() obs.Snapshot
}

// spec parses the graph definition and attaches the removed-edge list.
func (ts *TopoSpec) spec() (topology.Spec, error) {
	sp, err := topology.ParseSpec(ts.Graph)
	if err != nil {
		return topology.Spec{}, err
	}
	sp.Removed = ts.Removed
	return sp, nil
}

// BuildGraph materializes the (possibly edge-shaved) physical graph.
func (ts *TopoSpec) BuildGraph() (*topology.Graph, error) {
	sp, err := ts.spec()
	if err != nil {
		return nil, err
	}
	return sp.Build()
}

// validate rejects malformed mode and placement strings early (analyze
// rejects a malformed graph).
func (ts *TopoSpec) validate() error {
	switch ts.Mode {
	case "", TopoModeTransport, TopoModeRouted:
	default:
		return fmt.Errorf("chaos: unknown topology mode %q", ts.Mode)
	}
	switch ts.Placement {
	case "", PlacementUniform, PlacementCutset:
	default:
		return fmt.Errorf("chaos: unknown fault placement %q", ts.Placement)
	}
	return nil
}

// edgeCandidates lists the current graph's edges in deterministic order —
// the shrinker's reduction dimension (each candidate step appends one of
// these to Removed).
func (ts *TopoSpec) edgeCandidates() [][2]int {
	g, err := ts.BuildGraph()
	if err != nil {
		return nil
	}
	el := g.EdgeList()
	out := make([][2]int, len(el))
	for i, e := range el {
		out[i] = [2]int{int(e[0]), int(e[1])}
	}
	return out
}

// analyze returns the graph's shared analysis from topology.Shared: order,
// κ, minimum cut and route tables, computed once per graph for the process.
func (ts *TopoSpec) analyze() (*topology.Analysis, error) {
	sp, err := ts.spec()
	if err != nil {
		return nil, err
	}
	return topology.Shared.Analyze(sp)
}

// TopoReport is the topology block of an Outcome: the graph's position
// relative to the Theorem 3 boundary, the classic-BA baseline verdict, and
// the channel's traffic accounting.
type TopoReport struct {
	Graph string `json:"graph"`
	// Mode echoes TopoSpec.Mode ("" reads "transport"): a label only.
	Mode      string `json:"mode"`
	Placement string `json:"placement,omitempty"`
	// Kappa is the graph's vertex connectivity κ(G).
	Kappa int `json:"kappa"`
	// Margin is the connectivity margin κ − (m+u+1): ≥ 0 means Theorem 3
	// promises the channel abstraction holds, < 0 (loose mode only) means
	// the run is a lower-bound demonstration.
	Margin int `json:"margin"`
	// ClassicBAOK reports the classic Byzantine-agreement baseline: whether
	// Dolev's bounds (κ ≥ 2f+1 and n ≥ 3f+1) admit ANY agreement protocol
	// on this graph with this fault count. Cells with ClassicBAOK false and
	// a held degradable spec are exactly the paper's selling point.
	ClassicBAOK bool `json:"classicBAOK"`
	// Degraded counts deliveries whose accepted value differed from the
	// sent one (VOTE degradation to V_d, or forgery below the bound).
	Degraded int `json:"degraded,omitempty"`
	// Hops counts physical link traversals.
	Hops int `json:"hops,omitempty"`
	// HopsPerLogical is Hops per logical protocol message.
	HopsPerLogical float64 `json:"hopsPerLogical,omitempty"`
}

// classicBAOK is the Dolev baseline: classic Byzantine agreement on an
// incomplete graph needs κ ≥ 2f+1 and n ≥ 3f+1.
func classicBAOK(n, kappa, f int) bool { return kappa >= 2*f+1 && n >= 3*f+1 }

// Report analyzes the spec against an (n, m, u, f) instance without running
// it: graph order must match the scenario, and a graph below the Theorem 3
// bound κ ≥ m+u+1 is rejected unless Loose marks the run as a deliberate
// lower-bound demonstration. Traffic fields are filled in after execution.
func (ts *TopoSpec) Report(n, m, u, f int) (*TopoReport, error) {
	if err := ts.validate(); err != nil {
		return nil, err
	}
	an, err := ts.analyze()
	if err != nil {
		return nil, err
	}
	if an.N != n {
		return nil, fmt.Errorf("chaos: scenario has %d nodes but graph %q has %d", n, ts.Graph, an.N)
	}
	kappa := an.Kappa
	margin := kappa - (m + u + 1)
	if margin < 0 && !ts.Loose {
		return nil, fmt.Errorf(
			"chaos: graph %q has κ=%d < m+u+1=%d (Theorem 3); set loose for a lower-bound demonstration",
			ts.Graph, kappa, m+u+1)
	}
	mode := ts.Mode
	if mode == "" {
		mode = TopoModeTransport
	}
	return &TopoReport{
		Graph:       ts.Graph,
		Mode:        mode,
		Placement:   ts.Placement,
		Kappa:       kappa,
		Margin:      margin,
		ClassicBAOK: classicBAOK(n, kappa, f),
	}, nil
}

// corruptorFor projects a protocol-level fault onto the relay plane: a node
// that lies about its own values also rewrites copies it relays (to the same
// forged value), and a silent or crashed node relays nothing. The projection
// keeps the two fault planes consistent — a scenario's f Byzantine nodes are
// the SAME f nodes the routing layer must tolerate.
func corruptorFor(f FaultSpec) transport.RelayCorruptor {
	switch f.Kind {
	case adversary.KindLie, adversary.KindTwoFaced, adversary.KindRandom:
		if f.Value != 0 {
			return transport.FlipTo(f.Value)
		}
	}
	return transport.DropAll()
}

// NewChannel materializes the topology channel for one run: the graph's
// shared m+u+1 route table and relay corruptors derived from the scenario's
// fault set (crash victims in faulty without a FaultSpec relay nothing).
// Strict channels (Loose unset) fail when the graph's pairwise connectivity
// is below m+u+1. A malformed mode or placement is refused here too, since
// the cluster node process builds its channel without calling Report.
func (ts *TopoSpec) NewChannel(n, m, u int, faults []FaultSpec, faulty types.NodeSet) (TopoChannel, error) {
	if err := ts.validate(); err != nil {
		return nil, err
	}
	an, err := ts.analyze()
	if err != nil {
		return nil, err
	}
	if an.N != n {
		return nil, fmt.Errorf("chaos: scenario has %d nodes but graph %q has %d", n, ts.Graph, an.N)
	}
	routes, err := an.Routes(m + u + 1)
	if err != nil {
		return nil, err
	}
	corrupt := make(map[types.NodeID]transport.RelayCorruptor, faulty.Len())
	for _, f := range faults {
		corrupt[f.Node] = corruptorFor(f)
	}
	for _, id := range faulty.IDs() {
		if _, armed := corrupt[id]; !armed {
			corrupt[id] = transport.DropAll() // crash victim: relays nothing
		}
	}
	return transport.New(routes, m, u, corrupt, !ts.Loose)
}

// topoEgress composes an injector stack (sender-side faults, applied first)
// with a topology channel (the network, applied to each surviving copy).
// chain alone is an Expander and the transport channel alone is a Channel;
// their composition must expand so duplicates still fan out.
type topoEgress struct {
	inj  round.Expander // nil when the scenario has no injectors
	topo round.Channel
}

var _ round.Expander = (*topoEgress)(nil)

// DeliverAll implements round.Expander.
func (e *topoEgress) DeliverAll(m types.Message) []types.Message {
	copies := []types.Message{m}
	if e.inj != nil {
		copies = e.inj.DeliverAll(m)
	}
	var out []types.Message
	for _, cm := range copies {
		if dm, ok := e.topo.Deliver(cm); ok {
			out = append(out, dm)
		}
	}
	return out
}

// Deliver implements round.Channel; the first surviving copy wins.
func (e *topoEgress) Deliver(m types.Message) (types.Message, bool) {
	out := e.DeliverAll(m)
	if len(out) == 0 {
		return types.Message{}, false
	}
	return out[0], true
}

// ComposeEgress stacks an injector chain (may be nil) in front of a topology
// channel as one round.Expander. Exported for the cluster driver, which
// builds both per node process and needs the identical composition order —
// injectors first (a node's own egress faults), then the network.
func ComposeEgress(inj round.Expander, topo round.Channel) round.Expander {
	return &topoEgress{inj: inj, topo: topo}
}

// AddTopoStats folds a topology channel's counter snapshot into the
// scenario's injection counters.
func AddTopoStats(c *Counters, snap obs.Snapshot) {
	c.Degraded += int(snap.Counter(transport.CounterNames[transport.CounterDegraded]))
	c.Hops += int(snap.Counter(transport.CounterNames[transport.CounterHops]))
}

// TopoAxis switches a campaign's topology dimension on: every generated
// scenario runs over a sparse graph drawn from this axis instead of the
// perfect complete-graph wire. A nil axis reproduces the historical scenario
// stream byte-identically.
type TopoAxis struct {
	// Graph pins one generator definition for every scenario; empty draws
	// per scenario from Families.
	Graph string `json:"graph,omitempty"`
	// Families is the draw pool when Graph is empty (default
	// DefaultTopoFamilies).
	Families []string `json:"families,omitempty"`
	// Placement is PlacementUniform, PlacementCutset, or PlacementMixed
	// ("" = uniform).
	Placement string `json:"placement,omitempty"`
	// Mode is TopoModeTransport, TopoModeRouted, or TopoModeMixed ("" =
	// mixed). It only labels scenarios; the mixed coin is still drawn so
	// the scenario stream stays byte-identical.
	Mode string `json:"mode,omitempty"`
	// Loose permits below-bound graphs (lower-bound campaigns). Scenarios
	// whose margin is negative resolve to LevelNone: nothing is promised.
	Loose bool `json:"loose,omitempty"`
}

// DefaultTopoFamilies is the campaign draw pool: one representative per
// generator family, sized so the default grid's (m, u) points stay feasible
// on most of them.
func DefaultTopoFamilies() []string {
	return []string{
		"complete:7",     // κ=6: the degenerate baseline, channel is a no-op wire
		"harary:4:9",     // κ=4: minimum-edge graph meeting κ=m+u+1 for 1/2
		"hypercube:4",    // κ=4: the classic sparse datacenter topology
		"bridge:3:4:3",   // κ=4: two blocks joined by a 4-node cut set
		"cliquering:4:2", // κ=4: ring of 4 cliques of size 2
		"gnp:9:0.7:1",    // random graph conditioned on connectivity
	}
}

// validate rejects a malformed axis before any scenario is generated. Every
// definition the axis names is built, through the memo, so a graph that
// parses but cannot be built (a gnp draw with no connected sample) fails
// the campaign instead of silently generating flat scenarios.
func (a *TopoAxis) validate() error {
	defs := a.Families
	if a.Graph != "" {
		defs = append([]string{a.Graph}, defs...)
	}
	for _, def := range defs {
		ts := TopoSpec{Graph: def}
		if _, err := ts.analyze(); err != nil {
			return err
		}
	}
	switch a.Placement {
	case "", PlacementUniform, PlacementCutset, PlacementMixed:
	default:
		return fmt.Errorf("chaos: unknown fault placement %q", a.Placement)
	}
	switch a.Mode {
	case "", TopoModeTransport, TopoModeRouted, TopoModeMixed:
	default:
		return fmt.Errorf("chaos: unknown topology mode %q", a.Mode)
	}
	return nil
}

// topoPick is one scenario's resolved topology draw.
type topoPick struct {
	def       string
	mode      string
	placement string
	loose     bool
	cut       []types.NodeID
}

// pick resolves the axis for one scenario: draws the graph, fits the grid
// point to it (N becomes the graph's order; u is clamped so κ ≥ m+u+1 stays
// satisfiable), and resolves the mixed placement/mode coins. A graph that
// cannot host the grid point at all falls back to the complete graph of the
// grid's own order, so no draw is wasted. All randomness comes from the
// scenario's seeded rng, so campaigns with a topology axis replay exactly.
func (a *TopoAxis) pick(rng *rand.Rand, gp *GridPoint) *topoPick {
	def := a.Graph
	if def == "" {
		fams := a.Families
		if len(fams) == 0 {
			fams = DefaultTopoFamilies()
		}
		def = fams[rng.Intn(len(fams))]
	}
	p := &topoPick{def: def, loose: a.Loose}
	switch a.Placement {
	case PlacementCutset:
		p.placement = PlacementCutset
	case PlacementMixed:
		if rng.Intn(2) == 0 {
			p.placement = PlacementCutset
		} else {
			p.placement = PlacementUniform
		}
	default:
		p.placement = PlacementUniform
	}
	switch a.Mode {
	case TopoModeTransport, TopoModeRouted:
		p.mode = a.Mode
	default: // "" or mixed: a label coin, drawn to keep the stream stable
		if rng.Intn(2) == 0 {
			p.mode = TopoModeRouted
		} else {
			p.mode = TopoModeTransport
		}
	}

	ts := TopoSpec{Graph: def}
	an, err := ts.analyze()
	if err != nil {
		return nil // a campaign's validate refuses such a definition up front
	}
	n, kappa := an.N, an.Kappa
	m, u := gp.M, gp.U
	if !a.Loose && u > kappa-1-m {
		u = kappa - 1 - m // clamp to the Theorem 3 boundary
	}
	if u < m || u < 1 || n < 2*m+u+1 {
		// The graph cannot host this grid point; fall back to the complete
		// graph of the grid's own order.
		p.def = fmt.Sprintf("complete:%d", gp.N)
		p.cut = nil
		return p
	}
	gp.N, gp.U = n, u
	if p.placement == PlacementCutset {
		p.cut = an.Cut()
	}
	return p
}

// cutFirst reorders a node permutation so the cut-set members come first
// (each group keeping its permutation order), aiming the first f fault draws
// at the graph's weakest separator.
func cutFirst(perm []int, cut []types.NodeID) []int {
	inCut := make(map[int]bool, len(cut))
	for _, id := range cut {
		inCut[int(id)] = true
	}
	out := make([]int, 0, len(perm))
	for _, v := range perm {
		if inCut[v] {
			out = append(out, v)
		}
	}
	for _, v := range perm {
		if !inCut[v] {
			out = append(out, v)
		}
	}
	return out
}

// MarginTally is one connectivity-margin row of a campaign report: how
// scenarios at κ − (m+u+1) = Margin fared. The Theorem 3 prediction is zero
// Violated at every margin ≥ 0 with f ≤ u.
type MarginTally struct {
	Margin       int `json:"margin"`
	Scenarios    int `json:"scenarios"`
	SpecHeld     int `json:"specHeld"`
	GracefulOnly int `json:"gracefulOnly"`
	Violated     int `json:"violated"`
}
