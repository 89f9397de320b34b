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

	"degradable/internal/types"
)

// Rule decides the resolved value at an internal path from the gathered
// values. nSub is the number of participants of the sub-protocol rooted at
// that path (n_σ in the package comment); vals always has length nSub−1.
type Rule func(nSub int, vals []types.Value) types.Value

// Tree is one receiver's EIG tree for a system of n nodes and a protocol of
// the given depth (number of relay rounds). The zero value is not usable;
// construct with New.
//
// Storage engines, in preference order:
//
//   - flat: the valid paths form a fixed k-permutation universe, so they
//     rank perfectly onto a dense array (types.PathRanker). Set/Get are a
//     ranking pass plus an array access and Resolve is an iterative
//     bottom-up level sweep — no hashing, no recursion, zero allocations
//     after warm-up. Used whenever the universe materializes (n ≤ 255 and
//     at most maxFlatEntries paths), which covers every runnable protocol.
//   - fast map: a comparable fixed-size key (n ≤ 255, depth ≤ maxFastDepth)
//     hashes without allocating. Fallback for universes too large to store
//     densely.
//   - string map: the fully general fallback for anything else.
//
// Exactly one engine is active per tree; the map engines also serve as the
// oracle the differential tests hold the flat engine against.
type Tree struct {
	n      int
	depth  int
	sender types.NodeID
	// flat is the dense-array engine; nil when the tree fell back to one
	// of the two maps (of which exactly one is then non-nil).
	flat *flatStore
	fast map[pathKey]types.Value
	vals map[string]types.Value
	// pbuf and scratch are reusable buffers for the map engines' recursive
	// Resolve: pbuf is the in-place DFS path, scratch holds one vals
	// segment per recursion level. Lazily sized; never shared across
	// goroutines (a Tree is one receiver's local state and has never been
	// concurrency-safe).
	pbuf    types.Path
	scratch []types.Value

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
}

// maxFastDepth is the deepest path a pathKey can encode. Protocol depth is
// m+1, so this covers every system up to m = 6 — far beyond what the
// exponential message complexity makes runnable anyway.
const maxFastDepth = 7

// pathKey is a comparable fixed-size path encoding for the fast map.
type pathKey struct {
	n   uint8 // path length
	ids [maxFastDepth]uint8
}

// fastKey encodes p as a pathKey. Only called when the tree is in fast mode,
// which guarantees every ID fits a byte and the length fits the array.
func fastKey(p types.Path) pathKey {
	var k pathKey
	k.n = uint8(len(p))
	for i, id := range p {
		k.ids[i] = uint8(id)
	}
	return k
}

// New returns an empty tree for a system of n nodes whose protocol performs
// depth rounds, rooted at sender. depth must be in [1, n-1] so that paths
// never exhaust the node population.
func New(n, depth int, sender types.NodeID) (*Tree, error) {
	return newTree(n, depth, sender, true)
}

// newMapTree builds a tree on the hash-map engine even where the flat
// engine would apply. The differential tests use it as the oracle the
// flat engine must match operation-for-operation.
func newMapTree(n, depth int, sender types.NodeID) (*Tree, error) {
	return newTree(n, depth, sender, false)
}

func newTree(n, depth int, sender types.NodeID, allowFlat bool) (*Tree, error) {
	if n < 2 {
		return nil, fmt.Errorf("eig: need at least 2 nodes, got %d", n)
	}
	if depth < 1 || depth > n-1 {
		return nil, fmt.Errorf("eig: depth %d out of range [1, %d]", depth, n-1)
	}
	if sender < 0 || int(sender) >= n {
		return nil, fmt.Errorf("eig: sender %d out of range", int(sender))
	}
	t := &Tree{n: n, depth: depth, sender: sender, uni: true, uniVal: types.Default}
	if allowFlat {
		t.flat = newFlatStore(n, depth, sender)
	}
	if t.flat == nil {
		if n <= 255 && depth <= maxFastDepth {
			t.fast = make(map[pathKey]types.Value)
		} else {
			t.vals = make(map[string]types.Value)
		}
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

// Reset empties the tree for reuse, retaining its allocated storage. The
// serving runtime pools node complements across agreement instances; Reset
// is what makes a pooled tree indistinguishable from a fresh one.
func (t *Tree) Reset() {
	switch {
	case t.flat != nil:
		t.flat.reset()
	case t.fast != nil:
		clear(t.fast)
	default:
		clear(t.vals)
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
	if t.flat != nil {
		// Ranking validates as a by-product: an invalid path has no index.
		idx, ok := t.flat.rk.Index(p)
		if !ok {
			return fmt.Errorf("eig: invalid path %s for n=%d depth=%d sender=%d",
				p, t.n, t.depth, int(t.sender))
		}
		if t.flat.set(idx, v) {
			t.noteStore(v)
		}
		return nil
	}
	if !t.ValidPath(p) {
		return fmt.Errorf("eig: invalid path %s for n=%d depth=%d sender=%d",
			p, t.n, t.depth, int(t.sender))
	}
	if t.fast != nil {
		k := fastKey(p)
		if _, dup := t.fast[k]; dup {
			return nil
		}
		t.fast[k] = v
		t.noteStore(v)
		return nil
	}
	k := p.Key()
	if _, dup := t.vals[k]; dup {
		return nil
	}
	t.vals[k] = v
	t.noteStore(v)
	return nil
}

// Layout returns the flat engine's path ranker, which the ranker cache
// shares by shape, so two trees have equal layouts exactly when
// StoreRelays may copy between them. It is nil on a map engine and for
// systems past types.MaxNodeSetID+1 nodes, which the bulk store does not
// cover.
func (t *Tree) Layout() *types.PathRanker {
	if t.flat == nil || t.n > types.MaxNodeSetID+1 {
		return nil
	}
	return t.flat.rk
}

// StoreRelays is Set in bulk. For every path σ of length level−1 that
// avoids both relayer and self, it stores src's value at σ (Default when
// src holds none) as the claim σ·relayer: exactly what relayer's honest
// round-level outbox sends receiver self and self's absorption keeps.
// First write wins and the unanimity tracker sees every store, as with
// Set. Every path stored ends in relayer, which no other sender can sign
// for, so interleaving these stores with Set calls for other senders'
// claims cannot change the tree. t and src must have equal non-nil
// Layouts.
func (t *Tree) StoreRelays(src *Tree, relayer, self types.NodeID, level int) error {
	rk := t.Layout()
	if rk == nil || src.Layout() != rk {
		return fmt.Errorf("eig: bulk store needs two flat trees of one shape")
	}
	if level < 2 || level > t.depth || relayer < 0 || int(relayer) >= t.n || relayer == t.sender {
		return fmt.Errorf("eig: no level-%d relays from %d for n=%d depth=%d sender=%d",
			level, int(relayer), t.n, t.depth, int(t.sender))
	}
	if self == t.sender {
		return nil // every claim carries the sender, which never stores its own
	}
	f, vals := t.flat, src.flat.vals
	for _, e := range f.relayPlan().runs[level][relayer] {
		if e.on.Contains(self) {
			continue
		}
		if v := vals[e.src]; f.set(int(e.dst), v) {
			t.noteStore(v)
		}
	}
	return nil
}

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
	if t.flat != nil {
		if idx, ok := t.flat.rk.Index(p); ok {
			return t.flat.vals[idx] // pre-filled with Default when absent
		}
		return types.Default
	}
	if t.fast != nil {
		if v, ok := t.fast[fastKey(p)]; ok {
			return v
		}
		return types.Default
	}
	if v, ok := t.vals[p.Key()]; ok {
		return v
	}
	return types.Default
}

// Has reports whether a value was recorded for p.
func (t *Tree) Has(p types.Path) bool {
	if t.flat != nil {
		idx, ok := t.flat.rk.Index(p)
		return ok && t.flat.has(idx)
	}
	if t.fast != nil {
		_, ok := t.fast[fastKey(p)]
		return ok
	}
	_, ok := t.vals[p.Key()]
	return ok
}

// Stored returns the number of recorded values.
func (t *Tree) Stored() int {
	if t.flat != nil {
		return t.flat.stored
	}
	if t.fast != nil {
		return len(t.fast)
	}
	return len(t.vals)
}

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
	if t.Stored() == t.selfFree {
		return t.uniVal, true
	}
	return types.Default, false
}

// Resolve computes the decision of receiver self by resolving the tree
// bottom-up from the root path (sender). rule is applied at every internal
// path; leaf paths (length == depth) evaluate to their stored value. The
// vote vector handed to rule is only valid for the duration of the call.
func (t *Tree) Resolve(self types.NodeID, rule Rule) types.Value {
	if t.flat != nil {
		return t.flat.resolve(self, rule)
	}
	// The map engines' DFS reuses one path buffer (children overwrite
	// their siblings' slot) and one scratch segment per recursion level,
	// so resolving a pooled tree allocates nothing after the first call.
	if cap(t.pbuf) < t.depth {
		t.pbuf = make(types.Path, 0, t.depth)
	}
	if want := t.depth * t.n; cap(t.scratch) < want {
		t.scratch = make([]types.Value, want)
	}
	t.pbuf = t.pbuf[:1]
	t.pbuf[0] = t.sender
	return t.resolve(t.pbuf, self, rule)
}

func (t *Tree) resolve(p types.Path, self types.NodeID, rule Rule) types.Value {
	if len(p) == t.depth {
		return t.Get(p)
	}
	// n_σ: participants of the sub-protocol whose sender is p.Last().
	// The top-level protocol has n participants; each recursion level
	// excludes one prior sender.
	nSub := t.n - (len(p) - 1)
	level := len(p) - 1
	seg := t.scratch[level*t.n : level*t.n : (level+1)*t.n]
	vals := seg[:0]
	// The receiver's own directly received value for this path (w_i in the
	// paper's step 3).
	vals = append(vals, t.Get(p))
	for j := 0; j < t.n; j++ {
		id := types.NodeID(j)
		if id == self || p.Contains(id) {
			continue
		}
		child := append(p, id)
		vals = append(vals, t.resolve(child, self, rule))
	}
	return rule(nSub, vals)
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
