package eig

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"degradable/internal/types"
	"degradable/internal/vote"
)

// TestFlatEngineSelection pins down which shapes the dense store accepts:
// New refuses a system past a byte of node IDs (the snapshot header stores
// n in one byte) and a universe past maxFlatEntries, and a tree at n = 255
// exports a snapshot that imports back.
func TestFlatEngineSelection(t *testing.T) {
	if _, err := New(256, 1, 0); err == nil {
		t.Error("New(256, 1, 0) accepted n = 256")
	}
	// N=255 depth=4 has 1 + 254 + 254·253 + 254·253·252 ≈ 16.3M paths.
	if _, err := New(255, 4, 0); err == nil {
		t.Error("New(255, 4, 0) accepted a 16M-path universe")
	}
	tr := mustNew(t, 255, 2, 254)
	if err := tr.Set(types.Path{254, 253}, 9); err != nil {
		t.Fatal(err)
	}
	snap, err := tr.Export(nil)
	if err != nil {
		t.Fatal(err)
	}
	back := mustNew(t, 255, 2, 254)
	if err := back.Import(snap); err != nil || back.Get(types.Path{254, 253}) != 9 {
		t.Fatalf("n=255 snapshot did not round-trip: %v", err)
	}
}

// enumeratePaths returns every valid path of every length, cloned.
func enumeratePaths(tr *Tree) []types.Path {
	var out []types.Path
	for l := 1; l <= tr.Depth(); l++ {
		tr.ForEachPath(l, -1, func(p types.Path) bool {
			out = append(out, p.Clone())
			return true
		})
	}
	return out
}

// TestFlatMatchesMapExhaustive is the differential oracle test: for every
// small universe (n ≤ 6, all depths, two sender choices) and a seeded
// random workload, the tree and the map-engine oracle must agree on
// Set/Get/Has/Stored and on Resolve — including the exact vote vectors
// handed to the rule — for every receiver, across two Reset generations.
func TestFlatMatchesMapExhaustive(t *testing.T) {
	for n := 2; n <= 6; n++ {
		for depth := 1; depth <= n-1; depth++ {
			for _, sender := range []types.NodeID{0, types.NodeID(n - 1)} {
				name := fmt.Sprintf("n%d_d%d_s%d", n, depth, int(sender))
				t.Run(name, func(t *testing.T) {
					flatT := mustNew(t, n, depth, sender)
					mapT := newMapTree(n, depth, sender)
					rng := rand.New(rand.NewSource(int64(n*100 + depth*10 + int(sender))))
					paths := enumeratePaths(flatT)
					for gen := 0; gen < 2; gen++ {
						differentialWorkload(t, flatT, mapT, paths, rng)
						flatT.Reset()
						mapT.Reset()
						if flatT.Stored() != 0 || mapT.Stored() != 0 {
							t.Fatal("Reset left values behind")
						}
					}
				})
			}
		}
	}
}

// TestFlatMatchesMapWide runs the same differential past NodeSet's range
// (n > 64), where a tree holds no references and no counts, so the
// odometer sweep gathers every level, the last inner one included.
func TestFlatMatchesMapWide(t *testing.T) {
	for _, s := range []struct {
		n, depth int
		sender   types.NodeID
	}{{66, 2, 65}, {66, 3, 0}, {70, 3, 69}} {
		t.Run(fmt.Sprintf("n%d_d%d_s%d", s.n, s.depth, int(s.sender)), func(t *testing.T) {
			flatT := mustNew(t, s.n, s.depth, s.sender)
			if flatT.Layout() != nil {
				t.Fatalf("n=%d is within NodeSet's range", s.n)
			}
			mapT := newMapTree(s.n, s.depth, s.sender)
			rng := rand.New(rand.NewSource(int64(s.n*100 + s.depth)))
			differentialWorkload(t, flatT, mapT, enumeratePaths(flatT), rng)
		})
	}
}

func differentialWorkload(t *testing.T, flatT *Tree, mapT *mapTree, paths []types.Path, rng *rand.Rand) {
	t.Helper()
	// Store a random ~2/3 subset, with duplicate Sets sprinkled in to
	// exercise first-write-wins on both engines.
	for _, p := range paths {
		if rng.Intn(3) == 0 {
			continue
		}
		v := types.Value(rng.Intn(5))
		if err := flatT.Set(p, v); err != nil {
			t.Fatalf("flat Set(%s): %v", p, err)
		}
		if err := mapT.Set(p, v); err != nil {
			t.Fatalf("map Set(%s): %v", p, err)
		}
		if rng.Intn(4) == 0 { // duplicate write, both must ignore it
			_ = flatT.Set(p, v+7)
			_ = mapT.Set(p, v+7)
		}
	}
	if flatT.Stored() != mapT.Stored() {
		t.Fatalf("Stored: flat %d, map %d", flatT.Stored(), mapT.Stored())
	}
	for _, p := range paths {
		if flatT.Has(p) != mapT.Has(p) {
			t.Fatalf("Has(%s): flat %v, map %v", p, flatT.Has(p), mapT.Has(p))
		}
		if fv, mv := flatT.Get(p), mapT.Get(p); fv != mv {
			t.Fatalf("Get(%s): flat %v, map %v", p, fv, mv)
		}
	}
	// Invalid paths behave identically on both engines.
	n := flatT.N()
	for _, bad := range []types.Path{
		{}, {types.NodeID(n)}, {flatT.Sender(), flatT.Sender()}, {flatT.Sender(), -1},
	} {
		if flatT.Set(bad, 1) == nil {
			t.Fatalf("flat Set(%v) accepted an invalid path", bad)
		}
		if flatT.Get(bad) != mapT.Get(bad) || flatT.Has(bad) != mapT.Has(bad) {
			t.Fatalf("invalid-path Get/Has diverge for %v", bad)
		}
	}
	// Resolve for every receiver, with a rule that logs every call: the
	// engines must agree on the result AND on the multiset of (nSub, vals)
	// the rule observes. (The engines emit the calls in different orders —
	// DFS post-order vs level sweep — which is immaterial: each call's
	// inputs are fully determined by its path, so equal multisets mean
	// every path was resolved from identical vote vectors.)
	const m = 1
	rule := RuleFunc(func(nSub int, vals []types.Value) types.Value {
		return vote.Vote(nSub-1-m, vals)
	})
	for self := 0; self < n; self++ {
		var flatLog, mapLog []string
		logging := func(log *[]string) Rule {
			return RuleFunc(func(nSub int, vals []types.Value) types.Value {
				*log = append(*log, fmt.Sprintf("%d:%v", nSub, vals))
				return rule(nSub, vals)
			})
		}
		fv := flatT.Resolve(types.NodeID(self), logging(&flatLog))
		mv := mapT.Resolve(types.NodeID(self), logging(&mapLog))
		if fv != mv {
			t.Fatalf("Resolve(self=%d): flat %v, map %v", self, fv, mv)
		}
		checkRecord(t, flatT, mapT, paths, types.NodeID(self), rule)
		sort.Strings(flatLog)
		sort.Strings(mapLog)
		if len(flatLog) != len(mapLog) {
			t.Fatalf("Resolve(self=%d): flat made %d rule calls, map %d",
				self, len(flatLog), len(mapLog))
		}
		for i := range flatLog {
			if flatLog[i] != mapLog[i] {
				t.Fatalf("Resolve(self=%d) rule call %d (sorted): flat %s, map %s",
					self, i, flatLog[i], mapLog[i])
			}
		}
	}
}

// checkRecord holds the record a resolve sweep fills to the paper's
// definition at every path, not just the root: each path's entry must equal
// the oracle's recursive resolution of that path. Paths through self are
// skipped (no ancestor reads them, so the sweep leaves them unwritten)
// unless self is the sender, which every path contains.
func checkRecord(t *testing.T, flatT *Tree, mapT *mapTree, paths []types.Path, self types.NodeID, rule Rule) {
	t.Helper()
	rec := append([]types.Value(nil), flatT.vals...)
	root := flatT.resolve(self, rule, rec)
	if want := flatT.Resolve(self, rule); root != want {
		t.Fatalf("resolve(self=%d) with a record: %v, without: %v", self, root, want)
	}
	for _, p := range paths {
		if self != flatT.Sender() && p.Contains(self) {
			continue
		}
		idx, _ := flatT.rk.Index(p)
		if got, want := rec[idx], mapT.resolve(p, self, rule); got != want {
			t.Fatalf("record(self=%d)[%s] = %v, oracle resolves %v", self, p, got, want)
		}
	}
}

// TestFlatResolveAllocs verifies the warm-path guarantee: after the first
// Resolve the tree allocates nothing, for Set and Resolve alike.
func TestFlatResolveAllocs(t *testing.T) {
	tr := mustNew(t, 7, 2, 0)
	paths := enumeratePaths(tr)
	rule := RuleFunc(func(nSub int, vals []types.Value) types.Value {
		return vote.Vote(nSub-2, vals)
	})
	warm := func() {
		tr.Reset()
		for i, p := range paths {
			_ = tr.Set(p, types.Value(i%3))
		}
		tr.Resolve(1, rule)
	}
	warm()
	if allocs := testing.AllocsPerRun(100, warm); allocs != 0 {
		t.Errorf("warm Set+Resolve allocates %.1f times per run, want 0", allocs)
	}
}

// FuzzFlatVsMap drives one universe with fuzzed operations and checks the
// tree never diverges from the map-engine oracle.
func FuzzFlatVsMap(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const n, depth = 6, 3
		flatT, err := New(n, depth, 0)
		if err != nil {
			t.Fatal(err)
		}
		mapT := newMapTree(n, depth, 0)
		paths := enumeratePaths(flatT)
		for i := 0; i+1 < len(ops); i += 2 {
			p := paths[int(ops[i])%len(paths)]
			v := types.Value(ops[i+1] % 4)
			if (ops[i]^ops[i+1])&1 == 0 {
				ferr := flatT.Set(p, v)
				merr := mapT.Set(p, v)
				if (ferr == nil) != (merr == nil) {
					t.Fatalf("Set(%s) error divergence: flat %v, map %v", p, ferr, merr)
				}
			} else if flatT.Get(p) != mapT.Get(p) || flatT.Has(p) != mapT.Has(p) {
				t.Fatalf("Get/Has(%s) diverge", p)
			}
		}
		rule := RuleFunc(func(nSub int, vals []types.Value) types.Value {
			return vote.Vote(nSub-2, vals)
		})
		for self := 0; self < n; self++ {
			if fv, mv := flatT.Resolve(types.NodeID(self), rule), mapT.Resolve(types.NodeID(self), rule); fv != mv {
				t.Fatalf("Resolve(self=%d): flat %v, map %v", self, fv, mv)
			}
			checkRecord(t, flatT, mapT, paths, types.NodeID(self), rule)
		}
	})
}

// TestStoreRelaysMatchesSet holds the bulk store to the Set calls it
// replaces: for every small shape, relayer, receiver and inner relay
// level (the last is referenced, see refer_test.go), a tree fed
// by StoreRelays must equal, claim for claim and in its unanimity state, a
// tree fed the same relays one Set at a time, starting from a tree that
// already holds some claims of every sender (first write wins).
func TestStoreRelaysMatchesSet(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	domain := []types.Value{types.Default, 1, 2}
	for n := 3; n <= 7; n++ {
		for depth := 2; depth <= n-1 && depth <= 4; depth++ {
			src := mustNew(t, n, depth, 1)
			for _, p := range enumeratePaths(src) {
				if rng.Intn(4) > 0 { // leave a quarter absent
					_ = src.Set(p, domain[rng.Intn(len(domain))])
				}
			}
			for relayer := 0; relayer < n; relayer++ {
				for self := 0; self < n; self++ {
					if self == relayer || relayer == 1 {
						continue
					}
					for level := 2; level < depth; level++ {
						bulk, one := mustNew(t, n, depth, 1), mustNew(t, n, depth, 1)
						for _, p := range enumeratePaths(bulk) {
							if !p.Contains(types.NodeID(self)) && rng.Intn(8) == 0 {
								v := domain[rng.Intn(len(domain))]
								_ = bulk.Set(p, v)
								_ = one.Set(p, v)
							}
						}
						if err := bulk.StoreRelays(src, types.NodeID(relayer), types.NodeID(self), level); err != nil {
							t.Fatal(err)
						}
						one.ForEachPath(level-1, types.NodeID(relayer), func(p types.Path) bool {
							if !p.Contains(types.NodeID(self)) {
								_ = one.Set(p.Append(types.NodeID(relayer)), src.Get(p))
							}
							return true
						})
						name := fmt.Sprintf("n=%d depth=%d relayer=%d self=%d level=%d", n, depth, relayer, self, level)
						a, _ := bulk.Export(nil)
						b, _ := one.Export(nil)
						if string(a) != string(b) {
							t.Fatalf("%s: bulk store's claims differ from Set's", name)
						}
						if bulk.uni != one.uni || bulk.uniSeen != one.uniSeen || (bulk.uni && bulk.uniVal != one.uniVal) {
							t.Fatalf("%s: unanimity tracker differs from Set's", name)
						}
					}
				}
			}
		}
	}
}

// TestStoreClaimsMatchesSet holds the per-recipient bulk store to the Set
// calls of the messages it replaces: claim k is the k-th path the relayer's
// outbox walks (ForEachPath order), stored as σ·relayer with vals[k] when
// bit k of sent is set and σ avoids self, over a tree that already holds
// some claims (first write wins). The sender as self stores nothing.
func TestStoreClaimsMatchesSet(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	domain := []types.Value{types.Default, 1, 2}
	for n := 3; n <= 7; n++ {
		for depth := 2; depth <= n-1 && depth <= 4; depth++ {
			for relayer := 0; relayer < n; relayer++ {
				for self := 0; self < n; self++ {
					if self == relayer || relayer == 1 {
						continue
					}
					for level := 2; level <= depth; level++ {
						bulk, one := mustNew(t, n, depth, 1), mustNew(t, n, depth, 1)
						for _, p := range enumeratePaths(bulk) {
							if !p.Contains(types.NodeID(self)) && rng.Intn(8) == 0 {
								v := domain[rng.Intn(len(domain))]
								_ = bulk.Set(p, v)
								_ = one.Set(p, v)
							}
						}
						var vals []types.Value
						var sent []uint64
						one.ForEachPath(level-1, types.NodeID(relayer), func(p types.Path) bool {
							k := len(vals)
							vals = append(vals, domain[rng.Intn(len(domain))])
							if k%64 == 0 {
								sent = append(sent, 0)
							}
							if rng.Intn(4) > 0 { // leave a quarter unsent
								sent[k/64] |= 1 << uint(k%64)
								if !p.Contains(types.NodeID(self)) {
									_ = one.Set(p.Append(types.NodeID(relayer)), vals[k])
								}
							}
							return true
						})
						if err := bulk.StoreClaims(vals, sent, types.NodeID(relayer), types.NodeID(self), level); err != nil {
							t.Fatal(err)
						}
						name := fmt.Sprintf("n=%d depth=%d relayer=%d self=%d level=%d", n, depth, relayer, self, level)
						a, _ := bulk.Export(nil)
						b, _ := one.Export(nil)
						if string(a) != string(b) {
							t.Fatalf("%s: vector store's claims differ from Set's", name)
						}
						if bulk.uni != one.uni || bulk.uniSeen != one.uniSeen || (bulk.uni && bulk.uniVal != one.uniVal) {
							t.Fatalf("%s: unanimity tracker differs from Set's", name)
						}
						if len(vals) > 0 && bulk.StoreClaims(vals[1:], sent, types.NodeID(relayer), types.NodeID(self), level) == nil {
							t.Fatalf("%s: a short vector accepted", name)
						}
					}
				}
			}
		}
	}
	a := mustNew(t, 5, 3, 0)
	if err := a.StoreClaims(nil, nil, 0, 3, 2); err == nil {
		t.Error("claims from the sender accepted")
	}
	if wide := mustNew(t, 70, 2, 0); wide.StoreClaims(make([]types.Value, 68), make([]uint64, 2), 2, 3, 2) == nil {
		t.Error("store past NodeSet's range accepted")
	}
}

// TestStoreRelaysRejectsMismatch checks the shape guard: a bulk store
// between trees of different layouts, past NodeSet's range, from the
// sender, or of a level that is not an inner relay round (the last
// round included), is an error.
func TestStoreRelaysRejectsMismatch(t *testing.T) {
	a, b := mustNew(t, 5, 3, 0), mustNew(t, 5, 3, 1)
	if err := a.StoreRelays(b, 2, 3, 2); err == nil {
		t.Error("store across senders accepted")
	}
	if wide := mustNew(t, 70, 2, 0); wide.Layout() != nil || wide.StoreRelays(mustNew(t, 70, 2, 0), 2, 3, 2) == nil {
		t.Error("store past NodeSet's range accepted")
	}
	if err := a.StoreRelays(mustNew(t, 5, 3, 0), 0, 3, 2); err == nil {
		t.Error("relays from the sender accepted")
	}
	for _, level := range []int{1, 3, 4} {
		if err := a.StoreRelays(mustNew(t, 5, 3, 0), 2, 3, level); err == nil {
			t.Errorf("level %d accepted", level)
		}
	}
}
