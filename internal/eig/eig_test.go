package eig

import (
	"testing"
	"testing/quick"

	"degradable/internal/types"
	"degradable/internal/vote"
)

func mustNew(t *testing.T, n, depth int, sender types.NodeID) *Tree {
	t.Helper()
	tr, err := New(n, depth, sender)
	if err != nil {
		t.Fatalf("New(%d, %d, %d): %v", n, depth, int(sender), err)
	}
	return tr
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name    string
		n, d    int
		sender  types.NodeID
		wantErr bool
	}{
		{"ok minimal", 2, 1, 0, false},
		{"ok typical", 7, 3, 0, false},
		{"too few nodes", 1, 1, 0, true},
		{"zero depth", 4, 0, 0, true},
		{"depth too large", 4, 4, 0, true},
		{"depth at limit", 4, 3, 0, false},
		{"sender out of range", 4, 2, 4, true},
		{"sender negative", 4, 2, -1, true},
		{"nonzero sender ok", 4, 2, 3, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(tt.n, tt.d, tt.sender)
			if (err != nil) != tt.wantErr {
				t.Errorf("New(%d,%d,%d) err = %v, wantErr %v", tt.n, tt.d, int(tt.sender), err, tt.wantErr)
			}
		})
	}
}

func TestSetGetAbsent(t *testing.T) {
	tr := mustNew(t, 4, 2, 0)
	p := types.Path{0}
	if tr.Has(p) {
		t.Error("fresh tree should have no values")
	}
	if got := tr.Get(p); got != types.Default {
		t.Errorf("absent Get = %v, want V_d", got)
	}
	if err := tr.Set(p, 5); err != nil {
		t.Fatal(err)
	}
	if got := tr.Get(p); got != 5 {
		t.Errorf("Get = %v, want 5", got)
	}
	// First write wins.
	if err := tr.Set(p, 9); err != nil {
		t.Fatal(err)
	}
	if got := tr.Get(p); got != 5 {
		t.Errorf("duplicate Set overwrote: %v", got)
	}
	if tr.Stored() != 1 {
		t.Errorf("Stored = %d", tr.Stored())
	}
}

func TestSetRejectsInvalidPaths(t *testing.T) {
	tr := mustNew(t, 4, 2, 0)
	bad := []types.Path{
		{},        // empty
		{1},       // wrong root
		{0, 0},    // repeat
		{0, 1, 2}, // too long
		{0, 9},    // node out of range
		{0, -1},   // negative node
	}
	for _, p := range bad {
		if err := tr.Set(p, 1); err == nil {
			t.Errorf("Set(%v) should fail", p)
		}
	}
}

func TestValidPath(t *testing.T) {
	tr := mustNew(t, 5, 3, 2)
	if !tr.ValidPath(types.Path{2, 0, 1}) {
		t.Error("valid path rejected")
	}
	if tr.ValidPath(types.Path{0, 1}) {
		t.Error("wrong-root path accepted")
	}
}

// Depth-1 tree: resolution is just the direct value (no voting at all —
// the root is a leaf).
func TestResolveDepthOne(t *testing.T) {
	tr := mustNew(t, 4, 1, 0)
	if err := tr.Set(types.Path{0}, 42); err != nil {
		t.Fatal(err)
	}
	got := tr.Resolve(1, RuleFunc(func(nSub int, vals []types.Value) types.Value {
		t.Error("rule should not be called for a leaf root")
		return types.Default
	}))
	if got != 42 {
		t.Errorf("Resolve = %v, want 42", got)
	}
}

// Depth-2 tree (BYZ(1,m) shape): root resolution sees n-1 values — the
// receiver's direct value plus n-2 resolved leaves.
func TestResolveDepthTwoValueVector(t *testing.T) {
	const n = 5
	tr := mustNew(t, n, 2, 0)
	if err := tr.Set(types.Path{0}, 10); err != nil { // own direct value
		t.Fatal(err)
	}
	// Echoes from nodes 2,3,4 (self = 1).
	for j, v := range map[types.NodeID]types.Value{2: 10, 3: 10, 4: 99} {
		if err := tr.Set(types.Path{0, j}, v); err != nil {
			t.Fatal(err)
		}
	}
	var seenN int
	var seenVals []types.Value
	got := tr.Resolve(1, RuleFunc(func(nSub int, vals []types.Value) types.Value {
		seenN = nSub
		seenVals = append([]types.Value(nil), vals...)
		return vote.Vote(nSub-1-1, vals) // m = 1
	}))
	if seenN != n {
		t.Errorf("nSub = %d, want %d", seenN, n)
	}
	if len(seenVals) != n-1 {
		t.Errorf("len(vals) = %d, want %d", len(seenVals), n-1)
	}
	if got != 10 {
		t.Errorf("Resolve = %v, want 10", got)
	}
}

// Missing leaves become Default in the vote vector.
func TestResolveMissingLeaves(t *testing.T) {
	tr := mustNew(t, 4, 2, 0)
	if err := tr.Set(types.Path{0}, 3); err != nil {
		t.Fatal(err)
	}
	// No echoes stored at all: vector = [3, V_d, V_d] for self=1.
	got := tr.Resolve(1, RuleFunc(func(nSub int, vals []types.Value) types.Value {
		return vote.Vote(2, vals)
	}))
	if got != types.Default {
		t.Errorf("Resolve = %v, want V_d (two defaults tie out the real value)", got)
	}
}

// nSub decreases by one per level in a depth-3 tree.
func TestResolveLevelSizes(t *testing.T) {
	const n = 7
	tr := mustNew(t, n, 3, 0)
	var sizes []int
	tr.Resolve(1, RuleFunc(func(nSub int, vals []types.Value) types.Value {
		sizes = append(sizes, nSub)
		if len(vals) != nSub-1 {
			t.Errorf("vals len %d for nSub %d", len(vals), nSub)
		}
		return types.Default
	}))
	// Children of the root are resolved first (post-order): all level-2
	// rules fire with nSub = n-1, then the root with nSub = n.
	if len(sizes) == 0 || sizes[len(sizes)-1] != n {
		t.Fatalf("root rule nSub = %v", sizes)
	}
	for _, s := range sizes[:len(sizes)-1] {
		if s != n-1 {
			t.Errorf("inner level nSub = %d, want %d", s, n-1)
		}
	}
}

func TestForEachPath(t *testing.T) {
	tr := mustNew(t, 4, 3, 0)
	var got []string
	tr.ForEachPath(2, -1, func(p types.Path) bool {
		got = append(got, p.String())
		return true
	})
	want := []string{
		types.Path{0, 1}.String(),
		types.Path{0, 2}.String(),
		types.Path{0, 3}.String(),
	}
	if len(got) != len(want) {
		t.Fatalf("paths = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("paths = %v, want %v", got, want)
		}
	}
}

func TestForEachPathExcludes(t *testing.T) {
	tr := mustNew(t, 4, 3, 0)
	tr.ForEachPath(3, 2, func(p types.Path) bool {
		if p.Contains(2) {
			t.Errorf("path %v contains excluded node", p)
		}
		return true
	})
	// Excluding the sender yields nothing.
	called := false
	tr.ForEachPath(2, 0, func(types.Path) bool { called = true; return true })
	if called {
		t.Error("excluding the sender should enumerate no paths")
	}
}

func TestForEachPathEarlyStop(t *testing.T) {
	tr := mustNew(t, 5, 3, 0)
	var count int
	tr.ForEachPath(3, -1, func(types.Path) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("early stop count = %d", count)
	}
}

func TestPathCount(t *testing.T) {
	tr := mustNew(t, 7, 3, 0)
	tests := []struct{ length, want int }{
		{1, 1},
		{2, 6},
		{3, 30},
		{0, 0},
		{4, 0}, // beyond depth
	}
	for _, tt := range tests {
		if got := tr.PathCount(tt.length); got != tt.want {
			t.Errorf("PathCount(%d) = %d, want %d", tt.length, got, tt.want)
		}
	}
}

// PathCount agrees with actual enumeration.
func TestPathCountMatchesEnumeration(t *testing.T) {
	for _, n := range []int{3, 4, 5, 6} {
		tr := mustNew(t, n, n-1, 0)
		for l := 1; l <= n-1; l++ {
			var count int
			tr.ForEachPath(l, -1, func(types.Path) bool { count++; return true })
			if count != tr.PathCount(l) {
				t.Errorf("n=%d l=%d: enumerated %d, PathCount %d", n, l, count, tr.PathCount(l))
			}
		}
	}
}

// Property: resolution is deterministic — same stored values, same result.
func TestResolveDeterministicQuick(t *testing.T) {
	rule := RuleFunc(func(nSub int, vals []types.Value) types.Value {
		return vote.Vote(nSub-1-1, vals)
	})
	f := func(raw []uint8) bool {
		tr1 := mustNewQuick(5, 3, 0)
		tr2 := mustNewQuick(5, 3, 0)
		i := 0
		tr1.ForEachPath(3, -1, func(p types.Path) bool {
			if i < len(raw) {
				v := types.Value(raw[i] % 3)
				_ = tr1.Set(p, v)
				_ = tr2.Set(p, v)
				i++
			}
			return true
		})
		return tr1.Resolve(1, rule) == tr2.Resolve(1, rule)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: with all paths carrying one identical value v and threshold
// rules satisfied, resolution returns v (unanimity is preserved).
func TestResolveUnanimityQuick(t *testing.T) {
	f := func(vRaw int8) bool {
		v := types.Value(vRaw)
		tr := mustNewQuick(6, 3, 0)
		for l := 1; l <= 3; l++ {
			tr.ForEachPath(l, -1, func(p types.Path) bool {
				_ = tr.Set(p, v)
				return true
			})
		}
		got := tr.Resolve(1, RuleFunc(func(nSub int, vals []types.Value) types.Value {
			return vote.Vote(nSub-1-2, vals) // m = 2
		}))
		return got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func mustNewQuick(n, depth int, sender types.NodeID) *Tree {
	tr, err := New(n, depth, sender)
	if err != nil {
		panic(err)
	}
	return tr
}
