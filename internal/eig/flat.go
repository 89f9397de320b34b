package eig

import (
	"math/bits"
	"sync"

	"degradable/internal/types"
)

// maxFlatEntries bounds the dense universe a tree will allocate: one
// types.Value per valid path plus a presence bit. New refuses shapes past
// it (very deep trees on large systems); everything the protocols actually
// run fits with room to spare.
const maxFlatEntries = 1 << 20

// relayPlan is the relay rounds' rank-permutation table for one shape. For
// level ℓ ≥ 2 and relayer i, runs[ℓ][i] lists the level-ℓ paths σ·i in
// ascending rank — which is also ascending rank of σ, the order the relay
// outbox walks its claims in. Each entry names σ's flat index (read in the
// relayer's tree, by its outbox and by the bulk lane), σ·i's flat index
// (written in a receiver's tree by the lane) and σ's members, so a receiver
// on σ can skip the claim as absorption would. Members are filled only
// where a NodeSet holds every ID, the lane's range. The entries over all
// relayers are the universe minus its root, so a plan is no larger than
// one tree's index space. Immutable once built.
type relayPlan struct {
	runs [][][]relayEntry
	// last[r] is the member set of the level depth−1 path of rank r, for
	// Resolve's last inner level; filled, like the entries' members, only
	// where a NodeSet holds every ID.
	last []types.NodeSet
}

type relayEntry struct {
	src, dst int32
	on       types.NodeSet
}

// planCache shares relay plans across trees of one shape, as rankerCache
// shares rankers; the key is the same because the plan is a function of
// the ranker alone.
var planCache sync.Map // rankerKey -> *relayPlan

// relayPlan returns the tree's shared plan, building it on first use.
func (t *Tree) relayPlan() *relayPlan {
	if t.plan != nil {
		return t.plan
	}
	key := rankerKey{n: t.n, depth: t.depth, sender: t.sender}
	if p, ok := planCache.Load(key); ok {
		t.plan = p.(*relayPlan)
		return t.plan
	}
	p := newRelayPlan(t.rk)
	actual, _ := planCache.LoadOrStore(key, p)
	t.plan = actual.(*relayPlan)
	return t.plan
}

// newRelayPlan unranks every path of length ≥ 2 once and files it under its
// last element. A non-sender relayer ends exactly 1/(n−1) of each level.
func newRelayPlan(rk *types.PathRanker) *relayPlan {
	n, depth := rk.N(), rk.Depth()
	members := n <= types.MaxNodeSetID+1
	p := &relayPlan{runs: make([][][]relayEntry, depth+1)}
	buf := make(types.Path, 0, depth)
	for l := 2; l <= depth; l++ {
		cnt := rk.Count(l)
		per := cnt / (n - 1)
		all := make([]relayEntry, cnt)
		runs := make([][]relayEntry, n)
		for i := range runs {
			if types.NodeID(i) != rk.Sender() {
				runs[i], all = all[:0:per], all[per:]
			}
		}
		parent := rk.Offset(l - 1)
		for rank := 0; rank < cnt; rank++ {
			path, _ := rk.Unrank(l, rank, buf)
			var on types.NodeSet
			for _, id := range path[:l-1] {
				if members {
					on = on.Add(id)
				}
			}
			last := path.Last()
			runs[last] = append(runs[last], relayEntry{
				// The children of the level-(ℓ−1) path of rank q are the
				// level-ℓ ranks q·(n−ℓ+1)+s (types.PathRanker.Children).
				src: int32(parent + rank/(n-l+1)),
				dst: int32(rk.Offset(l) + rank),
				on:  on,
			})
		}
		p.runs[l] = runs
	}
	if members && depth >= 2 {
		p.last = make([]types.NodeSet, rk.Count(depth-1))
		for rank := range p.last {
			path, _ := rk.Unrank(depth-1, rank, buf)
			p.last[rank] = types.NewNodeSet(path...)
		}
	}
	return p
}

// rankerCache shares PathRanker tables across trees of the same shape. A
// ranker is immutable after construction, and the serving runtime builds 2n
// trees per pooled shape (one per honest node plus one per Byzantine
// wrapper) across every shard — one set of mixed-radix tables serves them
// all. Keyed by the full shape because the sender offset is baked into the
// ranking.
var rankerCache sync.Map // rankerKey -> *types.PathRanker

type rankerKey struct {
	n, depth int
	sender   types.NodeID
}

// sharedRanker returns the cached ranker for the shape, constructing it on
// first use. Construction races build duplicates; LoadOrStore keeps one.
func sharedRanker(n, depth int, sender types.NodeID) (*types.PathRanker, error) {
	key := rankerKey{n: n, depth: depth, sender: sender}
	if rk, ok := rankerCache.Load(key); ok {
		return rk.(*types.PathRanker), nil
	}
	rk, err := types.NewPathRanker(n, depth, sender)
	if err != nil {
		return nil, err
	}
	actual, _ := rankerCache.LoadOrStore(key, rk)
	return actual.(*types.PathRanker), nil
}

// Resolve computes the decision of receiver self by resolving the tree
// bottom-up from the root path (sender). rule is applied at every internal
// path; leaf paths (length == depth) evaluate to their stored value. The
// vote vector handed to rule is only valid for the duration of the call.
//
// The sweep is iterative. The leaf level needs no work at all — the value
// segment already holds stored-or-default for every leaf, and a leaf held
// by reference (ReferRelays) is read where its vote is gathered — and each
// inner level ℓ reads its children from the level-(ℓ+1) results at the
// contiguous rank block r·(n−ℓ)+s (see types.PathRanker.Children). A
// lexicographic odometer running in lockstep with the rank counter tracks
// the members of the path being resolved — at the last inner level,
// within NodeSet's range, the relay plan's member table does — so no path
// is ever materialized, no recursion happens, and after the scratch warms
// up nothing allocates.
//
// A Vote rule whose threshold α exceeds half the vote vector decides a
// last-inner-level path without gathering when the path's own value and
// the leaves counted equal to it at store time (see tally) reach α
// together: that value is then the vote's unique winner (docs/PROOFS.md,
// Lemma 1a). Any other path, and every path under a rule that declares no
// threshold, is gathered and decided by the rule.
func (t *Tree) Resolve(self types.NodeID, rule Rule) types.Value {
	return t.resolve(self, rule, nil)
}

// resolve is Resolve's sweep. A non-nil rec (length rk.Total(), a copy of
// the value segment) is the record of the walk: the referenced leaves are
// written into it first (the gather still reads them through the
// reference), and each inner level writes its resolved values
// into rec at the level's flat indices instead of the level scratch, so
// afterwards rec holds every path's resolved value by index — a leaf's
// stored-or-default value, an inner path's rule outcome. A path through
// self keeps its copied value, as no ancestor reads it. Record and
// ExplainResolve read this record; the decision path passes nil.
func (t *Tree) resolve(self types.NodeID, rule Rule, rec []types.Value) types.Value {
	if t.depth == 1 {
		return t.vals[0] // the root is a leaf: stored value or default
	}
	n := t.n
	// Compact index of self in the non-sender alphabet; -1 when self is
	// the sender (then no child is ever excluded for self, matching the
	// recursive definition where the root already contains the sender).
	selfC := -1
	if self != t.sender {
		selfC = int(self)
		if self > t.sender {
			selfC--
		}
	}
	if t.gather == nil {
		inner := t.rk.Count(t.depth - 1) // the widest non-leaf level
		t.level[0] = make([]types.Value, inner)
		t.level[1] = make([]types.Value, inner)
		t.gather = make([]types.Value, 0, n)
		t.odo = make([]int, t.depth)
	}
	// prev holds the resolved values of the level below, indexed by that
	// level's rank. For the leaf level it aliases the flat value segment
	// directly; absent leaves already read as the default value, and refs
	// says a leaf may be held by reference instead.
	off := t.rk.Offset(t.depth)
	prev := t.vals[off : off+t.rk.Count(t.depth)]
	refs := t.refd != 0
	if rec != nil {
		t.fillRefs(rec)
		prev = rec[off : off+len(prev)]
	}
	for l := t.depth - 1; l >= 1; l-- {
		k := l - 1 // relayers on a length-l path
		cnt := t.rk.Count(l)
		base := t.rk.Offset(l)
		cur := t.level[l&1]
		if rec != nil {
			cur = rec[base:]
		}
		cur = cur[:cnt]
		stride := n - l // children per path, and the child-block width
		// At the last inner level, where a NodeSet holds every ID, each
		// path's members come from the shape's table, a leaf may be held
		// by reference, and a Vote rule may decide the path by count:
		// alpha is its threshold, 0 where no count decides — also when
		// the tree holds a leaf relayed by self, which self's vector
		// leaves out. Elsewhere the odometer tracks the members.
		var table []types.NodeSet
		alpha := 0
		if l == t.depth-1 && t.agree != nil {
			table = t.relayPlan().last
			if !t.relayed.Contains(self) {
				beta := stride // own value and every child but self's
				if self == t.sender {
					beta++ // the sender's own vector keeps every child
				}
				alpha = countAlpha(rule, n-k, beta)
			}
		}
		c := t.odo[:k]
		for i := range c {
			c[i] = i // rank 0 is the lexicographically first permutation
		}
		for rank := 0; rank < cnt; rank++ {
			// sSelf is the child slot occupied by self, to be skipped when
			// gathering; -2 marks a path containing self, whose resolved
			// value no ancestor ever reads.
			sSelf := -1
			var on types.NodeSet
			if table != nil {
				if alpha > 0 && 1+int(t.agree[rank]) >= alpha {
					// Decided by count. On a path through self this
					// writes the value a record already holds there.
					cur[rank] = t.vals[base+rank]
					continue
				}
				on = table[rank]
				if selfC >= 0 {
					sSelf = -2
					if !on.Contains(self) {
						sSelf = int(self) - bits.OnesCount64(uint64(on)&(1<<uint(self)-1))
					}
				}
			} else {
				if selfC >= 0 {
					sSelf = selfC
					for _, ci := range c {
						if ci == selfC {
							sSelf = -2
							break
						}
						if ci < selfC {
							sSelf--
						}
					}
				}
				if rank+1 < cnt {
					t.odoNext(c)
				}
			}
			if sSelf == -2 {
				continue
			}
			// w_1..w_{n_σ−1} of the paper's step 3: the receiver's own
			// directly received value, then the children's resolved
			// reports in ascending node-ID order.
			vals := append(t.gather[:0], t.vals[base+rank])
			cb := rank * stride
			if table != nil && refs {
				vals = t.gatherLeaves(vals, on, base+rank, cb, self)
			} else {
				for s := 0; s < stride; s++ {
					if s == sSelf {
						continue
					}
					vals = append(vals, prev[cb+s])
				}
			}
			cur[rank] = rule.Decide(n-k, vals)
		}
		prev = cur
	}
	return prev[0]
}

// gatherLeaves appends to vals the leaves below the last-inner-level path
// σ at flat index at, whose members are on and whose children start at
// leaf rank cb, leaving out self's: a leaf stored locally reads its own
// value, one held by reference reads its source's slot σ, and any other
// reads Default.
func (t *Tree) gatherLeaves(vals []types.Value, on types.NodeSet, at, cb int, self types.NodeID) []types.Value {
	leaf := t.leafOff + cb
	for j := 0; j < t.n; j++ {
		id := types.NodeID(j)
		if on.Contains(id) {
			continue
		}
		if id != self {
			v := t.vals[leaf]
			if !t.has(leaf) && t.held(id, on) {
				v = t.refs[id].src.vals[at]
			}
			vals = append(vals, v)
		}
		leaf++
	}
	return vals
}

// countAlpha is the threshold at which a last-inner-level path of nSub
// participants, whose vote vectors hold beta values, is decided by count:
// a Vote rule's α, clamped to 1 as vote.Vote clamps it, when 2α > beta
// leaves room for one winner only; 0 when no count decides.
func countAlpha(rule Rule, nSub, beta int) int {
	a, ok := rule.(Vote)
	if !ok {
		return 0
	}
	alpha := max(a(nSub), 1)
	if 2*alpha <= beta {
		return 0
	}
	return alpha
}

// fillRefs writes every leaf held by reference into rec, a copy of the
// value segment, so rec reads as the tree would had the leaves been
// copied.
func (t *Tree) fillRefs(rec []types.Value) {
	if t.refd == 0 {
		return
	}
	runs := t.relayPlan().runs[t.depth]
	for _, id := range t.refd.IDs() {
		r := t.refs[id]
		for _, e := range runs[id] {
			if !e.on.Contains(r.self) && !t.has(int(e.dst)) {
				rec[e.dst] = r.src.vals[e.src]
			}
		}
	}
}

// odoNext advances c to the next k-permutation of the compact alphabet
// {0..n−2} in lexicographic order, keeping the enumeration in lockstep
// with the level rank counter. Positions are tiny (k ≤ depth−1), so the
// quadratic membership scans stay a handful of compares.
func (t *Tree) odoNext(c []int) {
	m := t.n - 1
	for i := len(c) - 1; i >= 0; i-- {
	next:
		for v := c[i] + 1; v < m; v++ {
			for j := 0; j < i; j++ {
				if c[j] == v {
					continue next
				}
			}
			c[i] = v
			// Refill the suffix with the smallest unused values, ascending.
			for p := i + 1; p < len(c); p++ {
				for w := 0; w < m; w++ {
					free := true
					for j := 0; j < p; j++ {
						if c[j] == w {
							free = false
							break
						}
					}
					if free {
						c[p] = w
						break
					}
				}
			}
			return
		}
		// Position i exhausted: carry into i−1.
	}
}
