// Package eig implements the exponential-information-gathering (EIG) tree
// that underlies every recursive oral-messages protocol in this module.
//
// A relay path σ = (s, j1, ..., jk) labels the claim "jk said that j(k-1)
// said ... that the sender s sent v". A protocol with depth d exchanges d
// rounds of messages: round 1 carries the sender's direct values (paths of
// length 1), and round r carries relays of round r-1's paths (length r).
// After the final round each receiver resolves the tree bottom-up with a
// protocol-specific per-level voting rule:
//
//   - The paper's BYZ(t, m) resolves path σ with VOTE(n_σ−1−m, n_σ−1) where
//     n_σ = N − |σ| + 1 is the number of participants of the sub-protocol in
//     which σ's last node acted as sender (Section 4).
//   - Lamport's OM(m) resolves with a simple majority.
//
// The tree is the *local state of one receiver*: the receiver's own directly
// received value for σ sits at val(σ), and the resolved values of children
// σ·j supply the other receivers' reports, exactly matching the w_1..w_{n−1}
// vector of the paper's step 3.
package eig

import (
	"fmt"
	"math/bits"

	"degradable/internal/types"
	"degradable/internal/vote"
)

// Rule decides the resolved value at an internal path from the gathered
// values. nSub is the number of participants of the sub-protocol rooted at
// that path (n_σ in the package comment); vals has length nSub−1, or nSub
// when the tree is resolved for the sender, whose vector keeps every child.
type Rule interface {
	Decide(nSub int, vals []types.Value) types.Value
}

// RuleFunc is a Rule that declares no VOTE threshold: Resolve gathers and
// decides every inner path with it.
type RuleFunc func(nSub int, vals []types.Value) types.Value

// Decide implements Rule.
func (f RuleFunc) Decide(nSub int, vals []types.Value) types.Value { return f(nSub, vals) }

// Vote is the rule VOTE(α(nSub), nSub−1) of vote.Vote, which declares its
// threshold α: where 2α > nSub−1, a value seen α times in a vote vector is
// its unique winner, so Resolve decides a last-inner-level path whose own
// value its leaves already repeat often enough without gathering them
// (docs/PROOFS.md, Lemma 1a).
type Vote func(nSub int) int

// Decide implements Rule.
func (a Vote) Decide(nSub int, vals []types.Value) types.Value { return vote.Vote(a(nSub), vals) }

// Tree is one receiver's EIG tree for a system of n nodes and a protocol of
// the given depth (number of relay rounds). The zero value is not usable;
// construct with New.
//
// The valid paths form a fixed k-permutation universe, so a types.PathRanker
// ranks them perfectly onto a dense array: values live in one flat slice
// (absent slots pre-filled with the default value, which is exactly what an
// absent claim reads as) and a presence bitset carries the first-write-wins
// and Stored bookkeeping. Set/Get/Has are a ranking pass plus an array
// access — no hashing, no allocation — and Resolve is an iterative
// bottom-up level sweep with zero allocations after the first call. New
// refuses a shape whose universe does not materialize (n > 255, or more than
// maxFlatEntries paths); the protocols' exponential message cost puts every
// runnable shape far inside that bound.
type Tree struct {
	n      int
	depth  int
	sender types.NodeID
	rk     *types.PathRanker

	vals    []types.Value // indexed by rk.Index; types.Default when absent
	present []uint64
	stored  int

	// Resolve scratch, lazily sized on first use and reused forever after:
	// two level buffers (resolved values of the current and previous
	// level, swapped as the sweep ascends), the gathered vote vector, and
	// the odometer that tracks the member set of the path being resolved.
	// Never shared across goroutines: a Tree is one receiver's local state.
	level  [2][]types.Value
	gather []types.Value
	odo    []int

	// plan is the shape's shared relay table, fetched on the first relay
	// read (Relays) or bulk store (StoreRelays) and kept so later ones skip
	// the cache.
	plan *relayPlan

	// Unanimity tracking for the optimistic fast path: uni stays true while
	// every stored value equals uniVal (vacuously true when nothing is
	// stored yet), maintained incrementally on each first-write Set so
	// FastDecision is O(1). selfFree is the number of valid paths that avoid
	// any one fixed non-sender node — the same for every such node, so one
	// count serves all receivers.
	uni      bool
	uniSeen  bool
	uniVal   types.Value
	selfFree int

	// Leaves by reference (ReferRelays): refs[j], for each relayer j in
	// refd, is the honest tree whose level depth−1 holds j's last-round
	// claims σ·j for every σ that avoids refs[j].self. Such a leaf counts
	// as stored unless a local store already holds it (first write wins),
	// and every reader reads it through the reference. Nil past NodeSet's
	// range, where there is no bulk store.
	refs []leafRef
	refd types.NodeSet

	// Last-level counts: agree[r] is how many leaves below the level
	// depth−1 path of rank r arrived equal to the value present at that
	// path when they did — a lower bound on how often the path's own value
	// recurs among its children. relayed is the set of relayers some leaf
	// of which the tree holds, locally or by reference. resolve decides a
	// path by its count where the rule declares a VOTE threshold (see
	// Vote). Nil, like refs, past NodeSet's range or for a one-level tree.
	agree   []uint8
	relayed types.NodeSet
	// lastOff and leafOff are the flat indices of the first level depth−1
	// path and the first leaf.
	lastOff, leafOff int
}

// leafRef is one relayer's last round held by reference.
type leafRef struct {
	src  *Tree
	self types.NodeID
}

// New returns an empty tree for a system of n nodes whose protocol performs
// depth rounds, rooted at sender. depth must be in [1, n-1] so that paths
// never exhaust the node population, and the path universe must fit the
// dense store.
func New(n, depth int, sender types.NodeID) (*Tree, error) {
	if n < 2 {
		return nil, fmt.Errorf("eig: need at least 2 nodes, got %d", n)
	}
	if depth < 1 || depth > n-1 {
		return nil, fmt.Errorf("eig: depth %d out of range [1, %d]", depth, n-1)
	}
	if sender < 0 || int(sender) >= n {
		return nil, fmt.Errorf("eig: sender %d out of range", int(sender))
	}
	rk, err := sharedRanker(n, depth, sender)
	if err != nil {
		return nil, fmt.Errorf("eig: %w", err)
	}
	total := rk.Total()
	if total > maxFlatEntries {
		return nil, fmt.Errorf("eig: n=%d depth=%d has %d paths, more than the %d a tree stores",
			n, depth, total, maxFlatEntries)
	}
	t := &Tree{
		n: n, depth: depth, sender: sender, rk: rk,
		vals:    make([]types.Value, total),
		present: make([]uint64, (total+63)/64),
		uni:     true, uniVal: types.Default,
	}
	for i := range t.vals {
		t.vals[i] = types.Default
	}
	if t.Layout() != nil && depth >= 2 {
		t.refs = make([]leafRef, n)
		t.agree = make([]uint8, rk.Count(depth-1))
		t.lastOff, t.leafOff = rk.Offset(depth-1), rk.Offset(depth)
	}
	// Paths of length ℓ avoiding one fixed non-sender node: the sender is
	// pinned at position 0 and the remaining ℓ−1 relayers are drawn, without
	// repetition, from the n−2 other nodes — P(n−2, ℓ−1).
	perm := 1
	for l := 1; l <= depth; l++ {
		t.selfFree += perm
		perm *= n - 1 - l
	}
	return t, nil
}

// Reset empties the tree for reuse, retaining its allocated storage. A warm
// instance reuses its complement across agreement instances; Reset is what
// makes a reused tree indistinguishable from a fresh one. It runs in
// time proportional to the values actually recorded: each present slot is
// restored to the default value and its bit cleared, and the references
// and counts are dropped whether or not anything was stored locally.
func (t *Tree) Reset() {
	if t.refd != 0 {
		clear(t.refs)
		t.refd = 0
	}
	if t.relayed != 0 {
		clear(t.agree)
		t.relayed = 0
	}
	if t.stored > 0 {
		for w, word := range t.present {
			if word == 0 {
				continue
			}
			base := w << 6
			for word != 0 {
				t.vals[base+bits.TrailingZeros64(word)] = types.Default
				word &= word - 1
			}
			t.present[w] = 0
		}
		t.stored = 0
	}
	t.uni, t.uniSeen, t.uniVal = true, false, types.Default
}

// N returns the number of nodes in the top-level system.
func (t *Tree) N() int { return t.n }

// Depth returns the number of relay rounds (maximum path length).
func (t *Tree) Depth() int { return t.depth }

// Sender returns the root sender of the tree.
func (t *Tree) Sender() types.NodeID { return t.sender }

// ValidPath reports whether p is a well-formed path for this tree: rooted at
// the sender, length in [1, depth], and no repeated nodes.
func (t *Tree) ValidPath(p types.Path) bool {
	if len(p) < 1 || len(p) > t.depth {
		return false
	}
	if p[0] != t.sender {
		return false
	}
	return p.Valid(t.n)
}

// Set records the value received for path p. The first write wins; protocols
// ignore duplicate deliveries of the same claim. Invalid paths are rejected.
func (t *Tree) Set(p types.Path, v types.Value) error {
	// Ranking validates as a by-product: an invalid path has no index.
	idx, ok := t.rk.Index(p)
	if !ok {
		return fmt.Errorf("eig: invalid path %s for n=%d depth=%d sender=%d",
			p, t.n, t.depth, int(t.sender))
	}
	if t.heldPath(p) {
		return nil // referenced: already present
	}
	if t.store(idx, v) {
		t.noteStore(v)
		if len(p) == t.depth && t.agree != nil {
			t.tally(t.parent(idx), p.Last(), v)
		}
	}
	return nil
}

// held reports whether relayer's last-round claim σ·relayer is held by
// reference, given σ's members on.
func (t *Tree) held(relayer types.NodeID, on types.NodeSet) bool {
	return t.refd.Contains(relayer) && !on.Contains(t.refs[relayer].self)
}

// heldPath is held for a valid path p: a leaf whose relayer is referenced
// and whose σ avoids the reference's self.
func (t *Tree) heldPath(p types.Path) bool {
	if len(p) != t.depth || !t.refd.Contains(p.Last()) {
		return false
	}
	return !p[:len(p)-1].Contains(t.refs[p.Last()].self)
}

// parent is the flat index of a leaf's parent path: the children of the
// level-(depth−1) path of rank q are the leaf ranks q·(n−depth+1)+s. Only
// trees with counts (agree non-nil) have the offsets.
func (t *Tree) parent(leaf int) int {
	return t.lastOff + (leaf-t.leafOff)/(t.n-t.depth+1)
}

// tally notes one leaf of relayer stored with value v under the path at
// flat index parent, counting it toward that path's agreement count when
// the parent is present and holds v. The tree must keep counts (agree
// non-nil).
func (t *Tree) tally(parent int, relayer types.NodeID, v types.Value) {
	t.relayed |= 1 << uint(relayer) // in range: agree is nil past NodeSet's
	if t.has(parent) && t.vals[parent] == v {
		t.agree[parent-t.lastOff]++
	}
}

// has reports whether a value was stored locally at flat index idx.
func (t *Tree) has(idx int) bool { return t.present[idx>>6]&(1<<uint(idx&63)) != 0 }

// store records v at idx unless a value is already present (first write
// wins), reporting whether the value was stored — the unanimity tracking
// only counts actual stores.
func (t *Tree) store(idx int, v types.Value) bool {
	w, b := idx>>6, uint(idx&63)
	if t.present[w]&(1<<b) != 0 {
		return false
	}
	t.present[w] |= 1 << b
	t.vals[idx] = v
	t.stored++
	return true
}

// Layout returns the tree's path ranker, which the ranker cache shares by
// shape, so two trees have equal layouts exactly when StoreRelays may copy
// between them. It is nil for systems past types.MaxNodeSetID+1 nodes,
// which the bulk store does not cover.
func (t *Tree) Layout() *types.PathRanker {
	if t.n > types.MaxNodeSetID+1 {
		return nil
	}
	return t.rk
}

// StoreRelays is Set in bulk for an inner relay round, level in
// [2, depth−1]. For every path σ of length level−1 that avoids both
// relayer and self, it stores src's value at σ (Default when src holds
// none) as the claim σ·relayer: exactly what relayer's honest round-level
// outbox sends receiver self and self's absorption keeps. First write wins
// and the unanimity tracker sees every store, as with Set. Every path
// stored ends in relayer, which no other sender can sign for, so
// interleaving these stores with Set calls for other senders' claims
// cannot change the tree. t and src must have equal non-nil Layouts. The
// last round is taken by reference instead (ReferRelays).
func (t *Tree) StoreRelays(src *Tree, relayer, self types.NodeID, level int) error {
	if level == t.depth {
		return fmt.Errorf("eig: the last relay round is taken by ReferRelays")
	}
	run, err := t.relayRun(level, relayer)
	if err != nil {
		return err
	}
	if src.Layout() != t.rk {
		return fmt.Errorf("eig: bulk store needs two trees of one shape")
	}
	if self == t.sender {
		return nil // every claim carries the sender, which never stores its own
	}
	for _, e := range run {
		if e.on.Contains(self) {
			continue
		}
		if v := src.vals[e.src]; t.store(int(e.dst), v) {
			t.noteStore(v)
		}
	}
	return nil
}

// ReferRelays is StoreRelays for the last relay round, by reference: it
// records src as the holder of relayer's leaves to self instead of copying
// them. Every reader — Resolve, Get, Has, Stored, Export, ExplainResolve
// and FastDecision — answers exactly as if Set had stored src's value at σ
// (Default where src holds none) as σ·relayer for every σ that avoids both
// relayer and self: a leaf stored locally first keeps its value, and a
// referenced leaf counts as stored and reads through the reference. The
// one pass over the claims still feeds the unanimity tracker and the
// last-level counts, comparing the two trees' slot σ. src's level depth−1
// must not change until t's next Reset, which drops the reference; the
// lane takes the last round when every relayer's level depth−1 is final.
// A relayer's last round is taken once: a second reference is an error.
func (t *Tree) ReferRelays(src *Tree, relayer, self types.NodeID) error {
	run, err := t.relayRun(t.depth, relayer)
	if err != nil {
		return err
	}
	if src.Layout() != t.rk {
		return fmt.Errorf("eig: bulk store needs two trees of one shape")
	}
	if self == t.sender {
		return nil
	}
	if t.refd.Contains(relayer) {
		return fmt.Errorf("eig: relayer %d's last round is already referenced", int(relayer))
	}
	t.refs[relayer] = leafRef{src: src, self: self}
	t.refd = t.refd.Add(relayer)
	// tally, unrolled: one relayer's claims are the hot loop of a deep
	// run. A leaf stored locally first is present only if relayer has
	// relayed one before.
	local := t.relayed.Contains(relayer)
	t.relayed = t.relayed.Add(relayer)
	agree, lo, selfBit, stored := t.agree, t.lastOff, types.NewNodeSet(self), 0
	vals, present, theirs := t.vals, t.present, src.vals
	for _, e := range run {
		if e.on&selfBit != 0 || local && present[e.dst>>6]&(1<<uint(e.dst&63)) != 0 {
			continue
		}
		p := e.src
		v := theirs[p]
		stored++
		if t.uni {
			t.noteStore(v)
		}
		if vals[p] == v && present[p>>6]&(1<<uint(p&63)) != 0 {
			agree[int(p)-lo]++
		}
	}
	t.stored += stored
	return nil
}

// StoreClaims is StoreRelays for a relayer whose claims differ per
// recipient. Claim k is the k-th path σ of relayer's level-`level` relay
// plan (see Relays); it was sent to self with value vals[k] when bit k of
// sent is set, and not at all otherwise. Every sent claim whose σ avoids
// self is stored as σ·relayer, exactly as absorbing the messages would;
// an unsent one stays absent.
func (t *Tree) StoreClaims(vals []types.Value, sent []uint64, relayer, self types.NodeID, level int) error {
	run, err := t.relayRun(level, relayer)
	if err != nil {
		return err
	}
	if len(vals) != len(run) || len(sent) < (len(run)+63)/64 {
		return fmt.Errorf("eig: %d values and %d presence words for %d level-%d claims from %d",
			len(vals), len(sent), len(run), level, int(relayer))
	}
	if self == t.sender {
		return nil
	}
	leaf := level == t.depth
	for k, e := range run {
		if sent[k>>6]&(1<<uint(k&63)) == 0 || e.on.Contains(self) || leaf && t.held(relayer, e.on) {
			continue
		}
		if v := vals[k]; t.store(int(e.dst), v) {
			t.noteStore(v)
			if leaf {
				t.tally(int(e.src), relayer, v)
			}
		}
	}
	return nil
}

// relayRun is relayer's level-`level` run of the relay plan, for the bulk
// stores: it needs a non-nil Layout, whose plan fills the member sets.
func (t *Tree) relayRun(level int, relayer types.NodeID) ([]relayEntry, error) {
	if t.Layout() == nil {
		return nil, fmt.Errorf("eig: no bulk store for n=%d", t.n)
	}
	if level < 2 || level > t.depth || relayer < 0 || int(relayer) >= t.n || relayer == t.sender {
		return nil, fmt.Errorf("eig: no level-%d relays from %d for n=%d depth=%d sender=%d",
			level, int(relayer), t.n, t.depth, int(t.sender))
	}
	return t.relayPlan().runs[level][relayer], nil
}

// Relays is one relayer's relay round read through the shape's relay plan:
// claim k is the k-th path σ of length level−1 that avoids the relayer, in
// ascending rank — the order the relay outbox's template lists its claims
// in — and Value(k) is what the tree holds for σ (Default when the claim
// never arrived). It reads the tree live and allocates nothing.
type Relays struct {
	vals []types.Value
	run  []relayEntry
}

// Relays returns relayer's claims for relay round level over this tree. It
// is empty for the sender, which relays nothing, and for a level outside
// [2, depth].
func (t *Tree) Relays(level int, relayer types.NodeID) Relays {
	if level < 2 || level > t.depth || relayer < 0 || int(relayer) >= t.n {
		return Relays{}
	}
	return Relays{vals: t.vals, run: t.relayPlan().runs[level][relayer]}
}

// Value is claim k's value.
func (r Relays) Value(k int) types.Value { return r.vals[r.run[k].src] }

// noteStore folds one first-write store into the unanimity tracker.
func (t *Tree) noteStore(v types.Value) {
	if !t.uniSeen {
		t.uniSeen, t.uniVal = true, v
		return
	}
	if v != t.uniVal {
		t.uni = false
	}
}

// Get returns the value recorded for p, or types.Default when the message
// carrying it was absent (the paper's assumption (b): absence is detectable,
// and a missing value is treated as the default).
func (t *Tree) Get(p types.Path) types.Value {
	idx, ok := t.rk.Index(p)
	switch {
	case !ok:
		return types.Default
	case !t.has(idx) && t.heldPath(p):
		return t.refs[p.Last()].src.vals[t.parent(idx)]
	default:
		return t.vals[idx] // pre-filled with Default when absent
	}
}

// Has reports whether a value was recorded for p.
func (t *Tree) Has(p types.Path) bool {
	idx, ok := t.rk.Index(p)
	return ok && (t.has(idx) || t.heldPath(p))
}

// Stored returns the number of recorded values.
func (t *Tree) Stored() int { return t.stored }

// FastDecision attempts to decide receiver self's value in O(1) from the
// incremental unanimity tracking, without sweeping the tree. It returns
// (decision, true) when the shortcut applies and (Default, false) when the
// caller must run the full Resolve.
//
// The shortcut relies on the tree holding only claims whose path excludes
// self — which is exactly what a receiver's tree contains, since relay
// absorption rejects self-containing paths. Under that invariant:
//
//   - If every stored value equals one value v ≠ V_d and every self-free slot
//     is stored, then each leaf reads v and each internal gather step sees an
//     all-v vector, so any unanimity-respecting rule (VOTE with its threshold
//     clamped to ≥ 1, Majority, Unanimous) resolves every path — and the
//     root — to v.
//   - If nothing non-default was stored (uniVal == V_d, or no stores at all),
//     every slot reads V_d — stored or absent — and the same argument gives
//     V_d regardless of completeness.
//
// Mixed values, or a non-default unanimous value with missing slots, fall
// back to the full resolve. The sender's own tree does not participate (the
// sender decides its own value directly).
func (t *Tree) FastDecision(self types.NodeID) (types.Value, bool) {
	if self == t.sender {
		return types.Default, false
	}
	if !t.uni {
		return types.Default, false
	}
	if !t.uniSeen || t.uniVal == types.Default {
		return types.Default, true
	}
	if t.stored == t.selfFree {
		return t.uniVal, true
	}
	return types.Default, false
}

// ForEachPath enumerates every valid path of exactly the given length
// (rooted at the sender, distinct nodes) that does not contain exclude.
// Pass exclude < 0 to enumerate all paths. Enumeration order is
// deterministic (lexicographic in node IDs). fn returning false stops the
// walk early. The path passed to fn is only valid for the duration of the
// call: callers that retain it must Clone (Append already copies).
func (t *Tree) ForEachPath(length int, exclude types.NodeID, fn func(types.Path) bool) {
	if length < 1 || length > t.depth {
		return
	}
	if exclude >= 0 && t.sender == exclude {
		return
	}
	p := make(types.Path, 1, length)
	p[0] = t.sender
	t.walk(p, length, exclude, fn)
}

func (t *Tree) walk(p types.Path, length int, exclude types.NodeID, fn func(types.Path) bool) bool {
	if len(p) == length {
		return fn(p)
	}
	for j := 0; j < t.n; j++ {
		id := types.NodeID(j)
		if id == exclude || p.Contains(id) {
			continue
		}
		if !t.walk(append(p, id), length, exclude, fn) {
			return false
		}
	}
	return true
}

// PathCount returns the number of distinct paths of the given length
// (excluding none): (n-1)(n-2)...(n-length+1) for length ≥ 1.
func (t *Tree) PathCount(length int) int {
	if length < 1 || length > t.depth {
		return 0
	}
	count := 1
	for i := 1; i < length; i++ {
		count *= t.n - i
	}
	return count
}
