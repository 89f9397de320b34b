package eig

import (
	"math/bits"
	"sync"

	"degradable/internal/types"
)

// maxFlatEntries bounds the dense universe the flat engine will allocate:
// one types.Value per valid path plus a presence bitset. Universes past
// the bound (very deep trees on large systems) fall back to the map
// engine; everything the protocols actually run fits with room to spare.
const maxFlatEntries = 1 << 20

// flatStore is the dense-array EIG storage engine. Every valid path is
// ranked to a contiguous integer by a types.PathRanker, values live in one
// flat slice (absent slots pre-filled with the default value, which is
// exactly what an absent claim reads as), and a presence bitset carries
// the first-write-wins and Stored bookkeeping. Set/Get/Has are a ranking
// pass plus an array access — no hashing, no allocation — and Resolve is
// an iterative bottom-up level sweep with zero allocations after the
// first call.
type flatStore struct {
	rk     *types.PathRanker
	n      int
	depth  int
	sender types.NodeID

	vals    []types.Value // indexed by rk.Index; types.Default when absent
	present []uint64
	stored  int

	// Resolve scratch, lazily sized on first use and reused forever after:
	// two level buffers (resolved values of the current and previous
	// level, swapped as the sweep ascends), the gathered vote vector, and
	// the odometer that tracks the member set of the path being resolved.
	level  [2][]types.Value
	gather []types.Value
	odo    []int

	// plan is the shape's shared relay table, fetched on the first bulk
	// store (Tree.StoreRelays) and kept so later stores skip the cache.
	plan *relayPlan
}

// relayPlan is the bulk lane's rank-permutation table for one shape. For
// level ℓ ≥ 2 and relayer i, runs[ℓ][i] lists the level-ℓ paths σ·i in
// ascending rank — which is also ascending rank of σ, the order the relay
// outbox walks its claims in. Each entry names σ's flat index (read in the
// relayer's tree), σ·i's flat index (written in a receiver's tree) and σ's
// members, so a receiver on σ can skip the claim as absorption would. The
// entries over all relayers are the universe minus its root, so a plan is
// no larger than one tree's index space. Immutable once built.
type relayPlan struct {
	runs [][][]relayEntry
}

type relayEntry struct {
	src, dst int32
	on       types.NodeSet
}

// planCache shares relay plans across trees of one shape, as rankerCache
// shares rankers; the key is the same because the plan is a function of
// the ranker alone.
var planCache sync.Map // rankerKey -> *relayPlan

// relayPlan returns the store's shared plan, building it on first use.
func (f *flatStore) relayPlan() *relayPlan {
	if f.plan != nil {
		return f.plan
	}
	key := rankerKey{n: f.n, depth: f.depth, sender: f.sender}
	if p, ok := planCache.Load(key); ok {
		f.plan = p.(*relayPlan)
		return f.plan
	}
	p := newRelayPlan(f.rk)
	actual, _ := planCache.LoadOrStore(key, p)
	f.plan = actual.(*relayPlan)
	return f.plan
}

// newRelayPlan unranks every path of length ≥ 2 once and files it under its
// last element. A non-sender relayer ends exactly 1/(n−1) of each level.
func newRelayPlan(rk *types.PathRanker) *relayPlan {
	n, depth := rk.N(), rk.Depth()
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
				on = on.Add(id)
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

// newFlatStore builds the dense engine, or returns nil when the universe
// is out of the ranker's range or too large to materialize — the caller
// then falls back to a map engine.
func newFlatStore(n, depth int, sender types.NodeID) *flatStore {
	rk, err := sharedRanker(n, depth, sender)
	if err != nil {
		return nil
	}
	total := rk.Total()
	if total > maxFlatEntries {
		return nil
	}
	f := &flatStore{rk: rk, n: n, depth: depth, sender: sender}
	f.vals = make([]types.Value, total)
	for i := range f.vals {
		f.vals[i] = types.Default
	}
	f.present = make([]uint64, (total+63)/64)
	return f
}

// set records v at idx unless a value is already present (first write
// wins, matching the tree contract), reporting whether the value was
// stored — the tree's unanimity tracking only counts actual stores.
func (f *flatStore) set(idx int, v types.Value) bool {
	w, b := idx>>6, uint(idx&63)
	if f.present[w]&(1<<b) != 0 {
		return false
	}
	f.present[w] |= 1 << b
	f.vals[idx] = v
	f.stored++
	return true
}

// has reports whether idx holds a recorded value.
func (f *flatStore) has(idx int) bool {
	return f.present[idx>>6]&(1<<uint(idx&63)) != 0
}

// reset empties the store in time proportional to the values actually
// recorded: each present slot is restored to the default value and its
// bit cleared. A pooled tree therefore resets in O(stored), not O(universe).
func (f *flatStore) reset() {
	if f.stored == 0 {
		return
	}
	for w, word := range f.present {
		if word == 0 {
			continue
		}
		base := w << 6
		for word != 0 {
			f.vals[base+bits.TrailingZeros64(word)] = types.Default
			word &= word - 1
		}
		f.present[w] = 0
	}
	f.stored = 0
}

// resolve computes receiver self's decision by an iterative bottom-up
// sweep over the flat arrays. The leaf level needs no work at all — the
// value segment already holds stored-or-default for every leaf — and each
// inner level ℓ reads its children from the level-(ℓ+1) results at the
// contiguous rank block r·(n−ℓ)+s (see types.PathRanker.Children). The
// per-path member set is tracked by a lexicographic odometer running in
// lockstep with the rank counter, so no path is ever materialized, no
// recursion happens, and after the scratch warms up nothing allocates.
func (f *flatStore) resolve(self types.NodeID, rule Rule) types.Value {
	if f.depth == 1 {
		return f.vals[0] // the root is a leaf: stored value or default
	}
	n := f.n
	// Compact index of self in the non-sender alphabet; -1 when self is
	// the sender (then no child is ever excluded for self, matching the
	// recursive definition where the root already contains the sender).
	selfC := -1
	if self != f.sender {
		selfC = int(self)
		if self > f.sender {
			selfC--
		}
	}
	if f.gather == nil {
		inner := f.rk.Count(f.depth - 1) // the widest non-leaf level
		f.level[0] = make([]types.Value, inner)
		f.level[1] = make([]types.Value, inner)
		f.gather = make([]types.Value, 0, n)
		f.odo = make([]int, f.depth)
	}
	// prev holds the resolved values of the level below, indexed by that
	// level's rank. For the leaf level it aliases the flat value segment
	// directly; absent leaves already read as the default value.
	off := f.rk.Offset(f.depth)
	prev := f.vals[off : off+f.rk.Count(f.depth)]
	for l := f.depth - 1; l >= 1; l-- {
		k := l - 1 // relayers on a length-l path
		cnt := f.rk.Count(l)
		cur := f.level[l&1][:cnt]
		stride := n - l // children per path, and the child-block width
		base := f.rk.Offset(l)
		c := f.odo[:k]
		for i := range c {
			c[i] = i // rank 0 is the lexicographically first permutation
		}
		for rank := 0; rank < cnt; rank++ {
			// sSelf is the child slot occupied by self, to be skipped when
			// gathering; -2 marks a path containing self, whose resolved
			// value no ancestor ever reads.
			sSelf := -1
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
			if sSelf != -2 {
				// w_1..w_{n_σ−1} of the paper's step 3: the receiver's own
				// directly received value, then the children's resolved
				// reports in ascending node-ID order.
				vals := append(f.gather[:0], f.vals[base+rank])
				cb := rank * stride
				for s := 0; s < stride; s++ {
					if s == sSelf {
						continue
					}
					vals = append(vals, prev[cb+s])
				}
				cur[rank] = rule(n-k, vals)
			}
			if rank+1 < cnt {
				f.odoNext(c)
			}
		}
		prev = cur
	}
	return prev[0]
}

// odoNext advances c to the next k-permutation of the compact alphabet
// {0..n−2} in lexicographic order, keeping the enumeration in lockstep
// with the level rank counter. Positions are tiny (k ≤ depth−1), so the
// quadratic membership scans stay a handful of compares.
func (f *flatStore) odoNext(c []int) {
	m := f.n - 1
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
