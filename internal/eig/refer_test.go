package eig

import (
	"fmt"
	"math/rand"
	"testing"

	"degradable/internal/types"
	"degradable/internal/vote"
)

// The copying twin is the oracle for both levers of the last level: a tree
// fed the same operations, except that every honest relayer's last round
// is copied by copyLeaves instead of referenced, and resolved with the
// rule stripped of its declared threshold, so every path is gathered and
// decided by the rule — the sweep the tree ran before either lever.

// fullSweep strips a rule's declared threshold.
func fullSweep(r Rule) Rule { return RuleFunc(r.Decide) }

// copyLeaves is the copy-everything last round: relayer's honest claims
// σ·relayer to self, for every σ of length depth−1 that avoids both, set
// one by one with src's value at σ (Default where src holds none), as the
// per-message path absorbs them.
func copyLeaves(x, src *Tree, relayer, self types.NodeID) {
	x.ForEachPath(x.Depth()-1, self, func(p types.Path) bool {
		if !p.Contains(relayer) {
			_ = x.Set(p.Append(relayer), src.Get(p))
		}
		return true
	})
}

// referRules are the rules the twin comparison resolves with: the paper's
// VOTE at two m, OM's majority, two thresholds at or below half the vector
// (the count must not decide there), and a rule that declares nothing.
func referRules(depth int) []Rule {
	return []Rule{
		Vote(func(nSub int) int { return nSub - depth }),
		Vote(func(nSub int) int { return nSub - 2 }),
		Vote(func(nSub int) int { return (nSub-1)/2 + 1 }),
		Vote(func(nSub int) int { return (nSub - 1) / 2 }),
		Vote(func(int) int { return 1 }),
		RuleFunc(func(_ int, vals []types.Value) types.Value { return vote.Majority(vals) }),
	}
}

var referDomain = []types.Value{types.Default, 1, 2}

// referRun feeds tr and twin one receiver's run and reports what it did.
// Every relayer's source tree is filled first, so no referenced level
// changes afterwards. The receiver stores some inner claims and some
// leaves itself, takes levels 2..depth−1 by StoreRelays, and then each
// non-sender relayer's last round one of four ways — referenced (the
// twin copies), copied by both, a liar's vector with drops, or nothing —
// before late parents and late leaves arrive by Set.
func referRun(t *testing.T, rng *rand.Rand, tr, twin *Tree, self types.NodeID) string {
	t.Helper()
	n, depth, sender := tr.N(), tr.Depth(), tr.Sender()
	pick := func() types.Value { return referDomain[rng.Intn(len(referDomain))] }
	both := func(what string, f func(*Tree) error) {
		if e1, e2 := f(tr), f(twin); (e1 == nil) != (e2 == nil) {
			t.Fatalf("%s: tree %v, twin %v", what, e1, e2)
		}
	}
	srcs := make([]*Tree, n)
	for j := range srcs {
		srcs[j] = mustNew(t, n, depth, sender)
		for l := 1; l < depth; l++ {
			srcs[j].ForEachPath(l, -1, func(p types.Path) bool {
				if rng.Intn(4) > 0 {
					_ = srcs[j].Set(p, pick())
				}
				return true
			})
		}
	}
	setSome := func(level, oneIn int, exclude types.NodeID) {
		tr.ForEachPath(level, exclude, func(p types.Path) bool {
			if rng.Intn(oneIn) == 0 {
				v := pick()
				both("Set", func(x *Tree) error { return x.Set(p, v) })
			}
			return true
		})
	}
	// Own inner claims, a few leaves before any slab, and (rarely) claims
	// through self, which a receiver's absorption would have refused.
	for l := 1; l < depth; l++ {
		setSome(l, 2, self)
	}
	setSome(depth, 12, self)
	if rng.Intn(4) == 0 {
		setSome(depth, 6, -1)
	}
	for l := 2; l < depth; l++ {
		for j := 0; j < n; j++ {
			if id := types.NodeID(j); id != sender && id != self && rng.Intn(3) > 0 {
				both("StoreRelays", func(x *Tree) error { return x.StoreRelays(srcs[j], id, self, l) })
			}
		}
	}
	var log []byte
	for j := 0; j < n; j++ {
		id := types.NodeID(j)
		if id == sender || id == self {
			continue
		}
		as := self
		if rng.Intn(8) == 0 {
			as = types.NodeID(rng.Intn(n)) // a slab taken under another receiver's name
		}
		mode := rng.Intn(4)
		log = append(log, "rcln"[mode])
		switch mode {
		case 0:
			if err := tr.ReferRelays(srcs[j], id, as); err != nil {
				t.Fatalf("ReferRelays(%d as %d): %v", j, int(as), err)
			}
			copyLeaves(twin, srcs[j], id, as)
		case 1:
			copyLeaves(tr, srcs[j], id, as)
			copyLeaves(twin, srcs[j], id, as)
		case 2:
			k := len(tr.Relays(depth, id).run)
			vals, sent := make([]types.Value, k), make([]uint64, (k+63)/64)
			for c := range vals {
				vals[c] = pick()
				if rng.Intn(5) > 0 {
					sent[c/64] |= 1 << uint(c%64)
				}
			}
			both("StoreClaims", func(x *Tree) error { return x.StoreClaims(vals, sent, id, as, depth) })
		}
	}
	setSome(depth-1, 3, self) // late parents: their earlier leaves stay uncounted
	setSome(depth, 10, self)  // late leaves: a referenced one is already present
	return string(log)
}

// compareTwin holds tr to twin on every reader, for every receiver and
// rule: Resolve, the resolve record at every path, FastDecision, Get, Has,
// Stored and Export, and ExplainResolve's text for the run's own receiver.
func compareTwin(t *testing.T, tr, twin *Tree, self types.NodeID, what string) {
	t.Helper()
	if tr.Stored() != twin.Stored() {
		t.Fatalf("%s: Stored %d, twin %d", what, tr.Stored(), twin.Stored())
	}
	paths := enumeratePaths(tr)
	for _, p := range paths {
		if tr.Get(p) != twin.Get(p) || tr.Has(p) != twin.Has(p) {
			t.Fatalf("%s: Get/Has(%s) = %v/%v, twin %v/%v", what, p, tr.Get(p), tr.Has(p), twin.Get(p), twin.Has(p))
		}
	}
	a, _ := tr.Export(nil)
	b, _ := twin.Export(nil)
	if string(a) != string(b) {
		t.Fatalf("%s: Export differs from the twin's", what)
	}
	for r := 0; r < tr.N(); r++ {
		id := types.NodeID(r)
		fv, fok := tr.FastDecision(id)
		tv, tok := twin.FastDecision(id)
		if fv != tv || fok != tok {
			t.Fatalf("%s: FastDecision(%d) = (%v, %v), twin (%v, %v)", what, r, fv, fok, tv, tok)
		}
		for k, rule := range referRules(tr.Depth()) {
			got, want := tr.Resolve(id, rule), twin.Resolve(id, fullSweep(rule))
			if got != want {
				t.Fatalf("%s: rule %d Resolve(%d) = %v, twin %v", what, k, r, got, want)
			}
			rec, wrec := tr.Record(id, rule), twin.Record(id, fullSweep(rule))
			for _, p := range paths {
				if rec.At(p) != wrec.At(p) {
					t.Fatalf("%s: rule %d record(%d)[%s] = %v, twin %v", what, k, r, p, rec.At(p), wrec.At(p))
				}
			}
			if id == self && tr.ExplainResolve(id, rule, nil) != twin.ExplainResolve(id, fullSweep(rule), nil) {
				t.Fatalf("%s: rule %d ExplainResolve(%d) differs from the twin's", what, k, r)
			}
		}
	}
}

// referCheck runs two generations of referRun on one pair of trees,
// resetting both in between, and compares them to each other after every
// generation and to a fresh tree after every Reset.
func referCheck(t *testing.T, seed int64, n, depth int, sender, self types.NodeID) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tr, twin := mustNew(t, n, depth, sender), mustNew(t, n, depth, sender)
	fresh, _ := mustNew(t, n, depth, sender).Export(nil)
	for gen := 0; gen < 2; gen++ {
		log := referRun(t, rng, tr, twin, self)
		compareTwin(t, tr, twin, self, fmt.Sprintf("seed=%d n=%d depth=%d sender=%d self=%d gen=%d relayers=%s",
			seed, n, depth, int(sender), int(self), gen, log))
		tr.Reset()
		twin.Reset()
		if got, _ := tr.Export(nil); string(got) != string(fresh) || tr.Stored() != 0 {
			t.Fatalf("seed=%d gen=%d: Reset left claims behind", seed, gen)
		}
	}
}

// TestReferMatchesCopy sweeps the twin comparison over small shapes, both
// sender positions and every receiver.
func TestReferMatchesCopy(t *testing.T) {
	seed := int64(1)
	for n := 3; n <= 8; n++ {
		for depth := 2; depth <= n-1 && depth <= 4; depth++ {
			for _, sender := range []types.NodeID{0, types.NodeID(n - 1)} {
				for self := 0; self < n; self++ {
					referCheck(t, seed, n, depth, sender, types.NodeID(self))
					seed++
				}
			}
		}
	}
}

// FuzzReferVsCopy holds the tree to its copying twin on fuzzed shapes
// (N ≤ 16, depth ≤ 4) and fuzzed runs.
func FuzzReferVsCopy(f *testing.F) {
	f.Add(int64(1), uint8(11), uint8(3), uint8(0), uint8(1))
	f.Add(int64(7), uint8(4), uint8(2), uint8(3), uint8(0))
	f.Add(int64(42), uint8(16), uint8(3), uint8(5), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, nb, db, sb, selfb uint8) {
		n := 3 + int(nb)%14
		depth := 2 + int(db)%min(3, n-2)
		referCheck(t, seed, n, depth, types.NodeID(int(sb)%n), types.NodeID(int(selfb)%n))
	})
}

// TestResetDropsReferencesAndCounts pins the references and counts to one
// run. Three runs share a tree: one that stores nothing locally and only
// references every leaf; one whose references are counted against a
// stored root; and again one of references only. After each Reset the
// tree must read empty, and the last run must decide the relayers' 9 as
// a fresh tree does — a count left over from the second would decide the
// root for its own absent value, V_d.
func TestResetDropsReferencesAndCounts(t *testing.T) {
	const n, depth, sender, self = 5, 2, 0, 1
	rule := Vote(func(nSub int) int { return nSub - 2 }) // VOTE(3, 4)
	src := func(v types.Value) *Tree {
		s := mustNew(t, n, depth, sender)
		if err := s.Set(types.Path{sender}, v); err != nil {
			t.Fatal(err)
		}
		return s
	}
	tr := mustNew(t, n, depth, sender)
	for run, c := range []struct {
		root, relayed, want types.Value
	}{
		{types.Default, 7, 7}, // references only
		{7, 7, 7},             // counted against the stored root
		{types.Default, 9, 9}, // references only, after a counted run
	} {
		if c.root != types.Default {
			if err := tr.Set(types.Path{sender}, c.root); err != nil {
				t.Fatal(err)
			}
		}
		s := src(c.relayed)
		for j := types.NodeID(2); j < n; j++ {
			if err := tr.ReferRelays(s, j, self); err != nil {
				t.Fatal(err)
			}
		}
		if got := tr.Resolve(self, rule); got != c.want {
			t.Fatalf("run %d decided %v, want %v as a fresh tree does", run, got, c.want)
		}
		tr.Reset()
		if tr.Stored() != 0 {
			t.Fatalf("run %d: Reset left %d claims", run, tr.Stored())
		}
		for _, p := range enumeratePaths(tr) {
			if tr.Has(p) || tr.Get(p) != types.Default {
				t.Fatalf("run %d: Reset left %s behind", run, p)
			}
		}
	}
}

// TestReferRelaysRejects checks ReferRelays's guards, which are
// StoreRelays's: a tree of another layout, a relay from the sender, and a
// tree with no bulk store.
func TestReferRelaysRejects(t *testing.T) {
	a := mustNew(t, 5, 3, 0)
	if err := a.ReferRelays(mustNew(t, 5, 3, 1), 2, 3); err == nil {
		t.Error("reference across senders accepted")
	}
	if err := a.ReferRelays(mustNew(t, 5, 3, 0), 0, 3); err == nil {
		t.Error("reference to the sender's relays accepted")
	}
	if wide := mustNew(t, 70, 2, 0); wide.ReferRelays(mustNew(t, 70, 2, 0), 2, 3) == nil {
		t.Error("reference past NodeSet's range accepted")
	}
	src := mustNew(t, 5, 3, 0)
	if err := a.ReferRelays(src, 2, 3); err != nil {
		t.Fatal(err)
	}
	if err := a.ReferRelays(src, 2, 3); err == nil {
		t.Error("a second reference to one relayer accepted")
	}
}

// TestReferAndCountAllocs keeps the warm last level allocation-free: a
// Reset, a reference per relayer and a counted Resolve.
func TestReferAndCountAllocs(t *testing.T) {
	const n, depth = 11, 4
	tr, src := mustNew(t, n, depth, 0), mustNew(t, n, depth, 0)
	for l := 1; l < depth; l++ {
		src.ForEachPath(l, -1, func(p types.Path) bool { _ = src.Set(p, 5); return true })
	}
	rule := Vote(func(nSub int) int { return nSub - 4 })
	var inner []types.Path
	for _, p := range selfFreePaths(tr, 1) {
		if len(p) < depth {
			inner = append(inner, p)
		}
	}
	run := func() {
		tr.Reset()
		for _, p := range inner {
			_ = tr.Set(p, 5)
		}
		for j := types.NodeID(2); j < n; j++ {
			_ = tr.ReferRelays(src, j, 1)
		}
		if tr.Resolve(1, rule) != 5 {
			t.Fatal("wrong decision")
		}
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("warm reference + counted resolve allocates %.1f times per run, want 0", allocs)
	}
}
