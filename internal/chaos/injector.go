// Package chaos is a composable, fully deterministic (seeded) network
// fault-injection subsystem layered on the round.Channel interposition
// point, plus a campaign engine that hammers the paper's D.1–D.4 conditions
// and the §2 graceful-degradation observation across a seeded grid of
// scenarios, and a delta-debugging shrinker that reduces any scenario
// violating its expected verdict to a locally minimal counterexample.
//
// Injection happens below the protocol: a scenario composes injector layers
// (message drops, delays-to-absence per §4 assumption b, duplicates, value
// corruption of faulty traffic, round-scoped partitions) onto the channel a
// runner.Instance already accepts, so no protocol code knows it is being
// tortured. Every random choice — scenario generation, per-message injection
// coin flips, adversary behaviour — derives from one campaign seed, so a
// campaign, a single scenario, and a shrunk counterexample all replay
// byte-identically.
//
// The expectation model follows the paper:
//
//   - Injectors restricted to faulty senders' traffic never violate the §4
//     assumptions (a Byzantine node may drop, duplicate, or corrupt its own
//     messages at will), so the applicable D condition must hold in full.
//   - Absence-type injectors (drop, delay, partition) on fault-free traffic
//     realize the §6.1 relaxed message model. With m < f ≤ u the paper argues
//     degradable agreement survives, so the full spec is still expected; with
//     f ≤ m the classic conditions are no longer guaranteed (a spurious
//     timeout can push a receiver to V_d, breaking D.1/D.2), but the m+1
//     graceful-degradation floor still is — at most two decision classes can
//     form, and N ≥ 2m+u+1 fault-free-node counting puts one of them at
//     m+1 or more.
//   - Duplicates are assumption-preserving everywhere: the EIG relay layer's
//     first-write-wins ingestion makes a repeated identical claim a no-op.
//   - Value corruption is always confined to faulty senders' traffic;
//     corrupting a fault-free link would violate assumption (a) outright and
//     promises nothing.
package chaos

import (
	"fmt"
	"math/rand"

	"degradable/internal/rng"
	"degradable/internal/round"
	"degradable/internal/types"
)

// InjectorKind selects a fault-injection behaviour.
type InjectorKind int

// Injector kinds.
const (
	// Drop discards each eligible message with probability P.
	Drop InjectorKind = iota + 1
	// DelayToAbsence delays each eligible message past the round timeout
	// with probability P. Under §4 assumption (b) a late message is a
	// detectable absence, so the receiver substitutes V_d exactly as for a
	// drop; the injector is accounted separately because it models a
	// different physical fault (a slow link, not a lossy one).
	DelayToAbsence
	// Duplicate delivers each eligible message twice with probability P.
	Duplicate
	// CorruptValue rewrites the value of each eligible message with
	// probability P to a draw from Domain (V_d included). It is always
	// confined to faulty senders' traffic, whatever Scope says.
	CorruptValue
	// Partition drops every message crossing between two Groups during
	// rounds [FromRound, ToRound].
	Partition
)

// String implements fmt.Stringer.
func (k InjectorKind) String() string {
	switch k {
	case Drop:
		return "drop"
	case DelayToAbsence:
		return "delay"
	case Duplicate:
		return "duplicate"
	case CorruptValue:
		return "corrupt"
	case Partition:
		return "partition"
	default:
		return fmt.Sprintf("InjectorKind(%d)", int(k))
	}
}

// Scope restricts whose traffic an injector may touch.
type Scope int

// Scopes.
const (
	// ScopeAnywhere makes every message eligible.
	ScopeAnywhere Scope = iota
	// ScopeFaultyOnly restricts injection to messages sent by faulty nodes.
	ScopeFaultyOnly
)

// String implements fmt.Stringer.
func (s Scope) String() string {
	if s == ScopeFaultyOnly {
		return "faulty-only"
	}
	return "anywhere"
}

// Injector declares one fault-injection layer of a scenario.
type Injector struct {
	// Kind selects the behaviour.
	Kind InjectorKind `json:"kind"`
	// P is the per-message injection probability (Drop, DelayToAbsence,
	// Duplicate, CorruptValue).
	P float64 `json:"p,omitempty"`
	// Scope restricts eligibility. CorruptValue is forced to faulty-only.
	Scope Scope `json:"scope,omitempty"`
	// Groups lists the partition's sides (Partition only). Nodes absent
	// from every group are unrestricted.
	Groups [][]types.NodeID `json:"groups,omitempty"`
	// FromRound and ToRound bound the partition's active rounds, inclusive.
	// Zero values mean "from round 1" and "forever".
	FromRound int `json:"fromRound,omitempty"`
	ToRound   int `json:"toRound,omitempty"`
	// Domain is CorruptValue's replacement-value pool; V_d is always
	// implicitly included.
	Domain []types.Value `json:"domain,omitempty"`
}

// Compose is a readability helper: Compose(Drop(...), Partition(...))
// expresses a scenario's injector stack as one expression.
func Compose(injectors ...Injector) []Injector { return injectors }

// absence reports whether the injector can make a message from a fault-free
// node arrive never (the §6.1 relaxed model) when scoped anywhere.
func (in Injector) absence() bool {
	switch in.Kind {
	case Drop, DelayToAbsence:
		return in.Scope == ScopeAnywhere && in.P > 0
	case Partition:
		return len(in.Groups) >= 2
	default:
		return false
	}
}

// Counters tallies what a scenario's injector stack actually did, per kind.
type Counters struct {
	Inspected  int `json:"inspected"`
	Dropped    int `json:"dropped"`
	Delayed    int `json:"delayed"`
	Duplicated int `json:"duplicated"`
	Corrupted  int `json:"corrupted"`
	Severed    int `json:"severed"`
	// Degraded and Hops mirror the topology channel's counters when the
	// scenario runs over a sparse graph (see TopoSpec): deliveries degraded
	// by the VOTE(m+1) acceptance rule, and physical link traversals.
	// Always zero — and omitted from the JSON form — for complete-graph
	// scenarios, which keeps historical campaign reports byte-identical.
	Degraded int `json:"degraded,omitempty"`
	Hops     int `json:"hops,omitempty"`
}

// Injections returns the total number of injected faults.
func (c Counters) Injections() int {
	return c.Dropped + c.Delayed + c.Duplicated + c.Corrupted + c.Severed
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.Inspected += other.Inspected
	c.Dropped += other.Dropped
	c.Delayed += other.Delayed
	c.Duplicated += other.Duplicated
	c.Corrupted += other.Corrupted
	c.Severed += other.Severed
	c.Degraded += other.Degraded
	c.Hops += other.Hops
}

// layer is one built injector: declaration + seeded randomness + group index.
// The layer borrows its generator from the rng pool at its first draw, so a
// layer that never draws — a Partition, or a faulty-scope layer that sees no
// faulty traffic — never touches the pool; the run that built the chain
// hands borrowed generators back through release.
type layer struct {
	spec     Injector
	seed     int64
	rng      *rand.Rand
	group    map[types.NodeID]int // Partition: node → side
	counters *Counters
	faulty   types.NodeSet
}

// eligible applies the layer's scope.
func (l *layer) eligible(m types.Message) bool {
	scope := l.spec.Scope
	if l.spec.Kind == CorruptValue {
		scope = ScopeFaultyOnly // corrupting fault-free traffic breaks §4(a)
	}
	return scope == ScopeAnywhere || l.faulty.Contains(m.From)
}

// hit draws the layer's per-message coin.
func (l *layer) hit() bool {
	if l.rng == nil {
		l.rng = rng.Get(l.seed)
	}
	return l.rng.Float64() < l.spec.P
}

// apply feeds one message through the layer, appending the surviving copies
// to dst.
func (l *layer) apply(dst []types.Message, m types.Message) []types.Message {
	if !l.eligible(m) {
		return append(dst, m)
	}
	switch l.spec.Kind {
	case Drop:
		if l.hit() {
			l.counters.Dropped++
			return dst
		}
	case DelayToAbsence:
		if l.hit() {
			l.counters.Delayed++
			return dst // late = detectably absent (§4 assumption b)
		}
	case Duplicate:
		if l.hit() {
			l.counters.Duplicated++
			return append(dst, m, m)
		}
	case CorruptValue:
		if l.hit() {
			l.counters.Corrupted++
			// A draw over V_d followed by Domain.
			if k := l.rng.Intn(len(l.spec.Domain) + 1); k == 0 {
				m.Value = types.Default
			} else {
				m.Value = l.spec.Domain[k-1]
			}
		}
	case Partition:
		if l.active(m.Round) {
			gf, okF := l.group[m.From]
			gt, okT := l.group[m.To]
			if okF && okT && gf != gt {
				l.counters.Severed++
				return dst
			}
		}
	}
	return append(dst, m)
}

// active reports whether the partition applies in the given round.
func (l *layer) active(round int) bool {
	if l.spec.FromRound > 0 && round < l.spec.FromRound {
		return false
	}
	if l.spec.ToRound > 0 && round > l.spec.ToRound {
		return false
	}
	return true
}

// chain is the composed injector stack; it implements round.Expander so
// duplicates can fan out. Each layer reads one buffer and appends into the
// other, so a warm DeliverAll allocates nothing; the slice it returns is
// valid until the next call.
type chain struct {
	layers   []*layer
	counters *Counters
	in, out  []types.Message
}

var _ round.Expander = (*chain)(nil)

// DeliverAll implements round.Expander.
func (c *chain) DeliverAll(m types.Message) []types.Message {
	c.counters.Inspected++
	cur := append(c.in[:0], m)
	next := c.out
	for _, l := range c.layers {
		next = next[:0]
		for _, cm := range cur {
			next = l.apply(next, cm)
		}
		cur, next = next, cur
		if len(cur) == 0 {
			break
		}
	}
	c.in, c.out = cur, next
	return cur
}

// release returns the layers' borrowed generators to the rng pool once the
// run is over; a chain that delivered again would restart every layer's
// stream.
func (c *chain) release() {
	for _, l := range c.layers {
		if l.rng != nil {
			rng.Put(l.rng)
			l.rng = nil
		}
	}
}

// Deliver implements round.Channel for callers that cannot expand; the
// first surviving copy wins.
func (c *chain) Deliver(m types.Message) (types.Message, bool) {
	out := c.DeliverAll(m)
	if len(out) == 0 {
		return types.Message{}, false
	}
	return out[0], true
}

// NewChannel materializes an injector stack as a round.Expander, with all
// injections tallied into counters. It is the exported form of buildChannel
// for other drivers: the cluster runtime instantiates one per node process
// (with a per-node derived seed) as that node's local egress channel, so
// chaos campaigns work across real processes.
func NewChannel(injectors []Injector, faulty types.NodeSet, seed int64, counters *Counters) (round.Expander, error) {
	return buildChannel(injectors, faulty, seed, counters)
}

// buildChannel materializes the injector stack for one run. Each layer gets
// its own source, seeded at its first draw from the scenario seed and the
// layer index, so that removing a layer during shrinking does not perturb
// the randomness of the layers that remain.
func buildChannel(injectors []Injector, faulty types.NodeSet, seed int64, counters *Counters) (*chain, error) {
	c := &chain{counters: counters}
	for i, in := range injectors {
		if err := validateInjector(in); err != nil {
			return nil, fmt.Errorf("chaos: injector %d: %w", i, err)
		}
		l := &layer{
			spec:     in,
			seed:     mix(seed, int64(i)+1),
			counters: counters,
			faulty:   faulty,
		}
		if in.Kind == Partition {
			l.group = make(map[types.NodeID]int)
			for g, members := range in.Groups {
				for _, id := range members {
					l.group[id] = g
				}
			}
		}
		c.layers = append(c.layers, l)
	}
	return c, nil
}

// validateInjector rejects malformed declarations early, so campaigns and
// shrink steps fail loudly instead of silently injecting nothing.
func validateInjector(in Injector) error {
	switch in.Kind {
	case Drop, DelayToAbsence, Duplicate, CorruptValue:
		if !(in.P >= 0 && in.P <= 1) { // NaN included
			return fmt.Errorf("probability %v out of [0,1]", in.P)
		}
	case Partition:
		if len(in.Groups) < 2 {
			return fmt.Errorf("partition needs at least two groups, got %d", len(in.Groups))
		}
		seen := make(map[types.NodeID]bool)
		for _, g := range in.Groups {
			for _, id := range g {
				if seen[id] {
					return fmt.Errorf("node %d in two partition groups", int(id))
				}
				seen[id] = true
			}
		}
	default:
		return fmt.Errorf("unknown injector kind %d", int(in.Kind))
	}
	return nil
}

// mix derives a stream seed from a base seed and an index, spreading nearby
// indices across the source's state space (splitmix-style odd multiplier).
func mix(seed, idx int64) int64 {
	return seed + idx*-7046029254386353131 // 2^64 / golden ratio, as int64
}

// DeriveSeed is the exported seed-derivation mix, for drivers that need
// per-node (or otherwise per-index) streams from one scenario seed without
// inventing an incompatible scheme — the cluster runtime derives each node
// process's egress-channel seed this way.
func DeriveSeed(seed, idx int64) int64 { return mix(seed, idx) }
