package acast

import (
	"degradable/internal/round"
	"degradable/internal/types"
)

// ABA is asynchronous binary agreement (Mostéfaoui–Moumen–Raynal style)
// over the scheduler core: nodes hold a binary estimate, exchange BVAL
// proposals and AUX votes per internal round, and a deterministic seeded
// common coin breaks symmetry. Safety — no two honest nodes decide
// differently, and the decision is some honest node's input — holds under
// ANY scheduling policy for f < n/3. Termination is probabilistic in the
// adversarial model; an adversarial or starving scheduler can withhold it
// indefinitely, which the chaos axis classifies as NotTerminated (never as
// a safety violation).
//
// The protocol per internal round r, starting from estimate est:
//
//  1. broadcast BVAL_r(est);
//  2. on BVAL_r(v) from f+1 distinct senders, relay BVAL_r(v) (at least
//     one sender is honest, so relaying cannot launder a Byzantine-only
//     value);
//  3. on BVAL_r(v) from 2f+1 distinct senders, add v to bin_values_r; on
//     the first such v, broadcast AUX_r(v);
//  4. on AUX_r votes from n−f distinct senders whose values all lie in
//     bin_values_r with value set vals: toss the round's common coin c. If
//     vals = {v} and v = c, decide v; if vals = {v} and v ≠ c, keep est=v;
//     if |vals| = 2, adopt est=c. Advance to round r+1.
//
// A decided node keeps participating (its BVAL/AUX keep laggards moving);
// the run's WaitFor set decides when the schedule ends.
type ABA struct {
	id       types.NodeID
	p        Params
	coinSeed uint64
	est      uint8
	round    int
	// rounds[r-1] is round r's vote state, dense from round 1: no round ever
	// retires, because a node that has moved on still relays an old round's
	// BVAL for laggards. abaRoundWindow bounds its length. It starts out
	// backed by inline, so a node that stays within abaInlineRounds rounds
	// grows nothing.
	rounds   []abaRound
	inline   [abaInlineRounds]abaRound
	out      outbox
	decided  bool
	decision types.Value
}

// abaRoundWindow bounds how far ahead of the node's current round a
// BVAL/AUX may claim to be before it is dropped. Round is protocol-owned and
// arrives unvalidated in asynchronous mode, so without a bound a Byzantine
// peer could grow the round state without limit by packing huge round numbers.
// Honest peers can legitimately run ahead (the coin converges in a handful of
// expected rounds), so the window is generous; dropping beyond it can only
// delay termination, never violate safety.
const abaRoundWindow = 32

// abaInlineRounds is how many rounds of vote state an ABA node holds before
// its round slice moves to the heap: at n ∈ {4, 7, 16, 31} under the five
// scheduler policies, about five nodes in six touch no more than four rounds
// (the round they decide in counts, and so does the one it opens).
const abaInlineRounds = 4

// abaRound is one internal round's vote state: 40 bytes, the flags sharing
// one word after the sets.
type abaRound struct {
	bval      [2]types.NodeSet
	aux       [2]types.NodeSet
	sentBval  [2]bool
	binValues [2]bool
	sentAux   bool
	done      bool
}

// NewABA builds a binary-agreement node with the given input bit. coinSeed
// drives the deterministic common coin and must be shared by all nodes of
// the instance (it models the paper-world common-coin oracle; the chaos
// axis derives it from the scenario seed so runs replay exactly).
func NewABA(id types.NodeID, p Params, input uint8, coinSeed uint64) *ABA {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	a := &ABA{id: id, p: p, coinSeed: coinSeed, est: input & 1, round: 1, out: newOutbox(id, p.N)}
	a.rounds = a.inline[:0]
	return a
}

// ID implements round.AsyncNode.
func (a *ABA) ID() types.NodeID { return a.id }

// Release implements round.Releaser: the node's send buffers go back to
// their pool. The node stays usable; its next broadcast borrows again.
func (a *ABA) Release() { a.out.release() }

// Decided implements round.AsyncNode.
func (a *ABA) Decided() (types.Value, bool) { return a.decision, a.decided }

// Start implements round.AsyncNode: broadcast the round-1 BVAL.
func (a *ABA) Start() []types.Message {
	a.out.begin()
	a.propose(a.round, a.est)
	return a.flush()
}

// OnDeliver implements round.AsyncNode.
func (a *ABA) OnDeliver(m types.Message) []types.Message {
	a.out.begin()
	a.handle(m)
	return a.flush()
}

// flush applies the queued self copies until quiescence and returns the
// call's external sends.
func (a *ABA) flush() []types.Message {
	for m, ok := a.out.next(); ok; m, ok = a.out.next() {
		a.handle(m)
	}
	return a.out.sends()
}

// state returns round r's vote state, extending the round slice on first
// touch. The pointer is good until state is next asked for a higher round.
func (a *ABA) state(r int) *abaRound {
	for len(a.rounds) < r {
		a.rounds = append(a.rounds, abaRound{})
	}
	return &a.rounds[r-1]
}

// propose marks BVAL(v) sent for round r and broadcasts it.
func (a *ABA) propose(r int, v uint8) {
	st := a.state(r)
	if st.sentBval[v] {
		return
	}
	st.sentBval[v] = true
	a.out.broadcast(types.Message{Round: r<<kindBits | KindBval, Value: types.Value(v)})
}

// vote adds round r's AUX(v) to the node's own broadcasts once BVAL(v) has
// its 2f+1 quorum: v joins bin_values, and the first such v is the AUX vote.
func (a *ABA) vote(st *abaRound, r int, v uint8) {
	st.binValues[v] = true
	if !st.sentAux {
		st.sentAux = true
		a.out.broadcast(types.Message{Round: r<<kindBits | KindAux, Value: types.Value(v)})
	}
}

// coin is the round's deterministic common coin: a splitmix draw over
// (coinSeed, r), identical at every node.
func (a *ABA) coin(r int) uint8 {
	return uint8(splitmix(a.coinSeed^(uint64(r)*0x9e3779b97f4a7c15)) & 1)
}

// handle ingests one ABA message and emits the resulting broadcasts into
// the outbox.
func (a *ABA) handle(m types.Message) {
	if m.Value != 0 && m.Value != 1 {
		return // Byzantine garbage: ABA values are bits
	}
	v := uint8(m.Value)
	r := ABARound(m.Round)
	if r < 1 || r > a.round+abaRoundWindow {
		return
	}
	st := a.state(r)
	switch Kind(m.Round) {
	case KindBval:
		if st.bval[v].Contains(m.From) {
			return
		}
		st.bval[v] = st.bval[v].Add(m.From)
		n := st.bval[v].Len()
		if n >= a.p.ReadyAmplify() {
			a.propose(r, v)
		}
		if n >= a.p.ReadyQuorum() && !st.binValues[v] {
			a.vote(st, r, v)
			a.tryAdvance(r)
		}
	case KindAux:
		if st.aux[v].Contains(m.From) {
			return
		}
		st.aux[v] = st.aux[v].Add(m.From)
		a.tryAdvance(r)
	}
}

// tryAdvance checks round r's AUX condition — n−f votes whose values all
// lie in bin_values — and on success applies the coin rule and opens round
// r+1. It only ever fires for the node's current round: earlier rounds are
// done, later rounds wait their turn.
func (a *ABA) tryAdvance(r int) {
	if r != a.round {
		return
	}
	st := a.state(r)
	if st.done || (!st.binValues[0] && !st.binValues[1]) {
		return
	}
	var voters types.NodeSet
	var vals [2]bool
	for v := 0; v < 2; v++ {
		// Votes for a non-bin value don't count (yet).
		if st.binValues[v] && !st.aux[v].Empty() {
			vals[v] = true
			voters = voters.Union(st.aux[v])
		}
	}
	if voters.Len() < a.p.N-a.p.F {
		return
	}
	st.done = true
	c := a.coin(r)
	switch {
	case vals[0] != vals[1]: // vals = {v}
		var v uint8
		if vals[1] {
			v = 1
		}
		if v == c && !a.decided {
			a.decided = true
			a.decision = types.Value(v)
		}
		a.est = v
	default: // both values voted: adopt the coin
		a.est = c
	}
	a.round = r + 1
	a.propose(a.round, a.est)
	// BVAL/AUX for the new round may already be buffered (a fast peer ran
	// ahead); re-check its thresholds immediately.
	a.recheck(a.round)
}

// recheck re-evaluates round r's thresholds from already-ingested votes,
// used when the node advances into a round its peers reached first.
func (a *ABA) recheck(r int) {
	st := a.state(r)
	for v := uint8(0); v < 2; v++ {
		n := st.bval[v].Len()
		if n >= a.p.ReadyAmplify() {
			a.propose(r, v)
		}
		if n >= a.p.ReadyQuorum() && !st.binValues[v] {
			a.vote(st, r, v)
		}
	}
	a.tryAdvance(r)
}

// splitmix is the 64-bit splitmix finalizer (the same mix the scheduler
// policies use for per-message draws).
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

var (
	_ round.AsyncNode = (*ABA)(nil)
	_ round.Releaser  = (*ABA)(nil)
)
