package eig

import (
	"testing"

	"degradable/internal/types"
)

// selfFreePaths returns every storable path that excludes self — the paths
// a receiver's tree actually holds.
func selfFreePaths(tr *Tree, self types.NodeID) []types.Path {
	var out []types.Path
	for l := 1; l <= tr.Depth(); l++ {
		tr.ForEachPath(l, self, func(p types.Path) bool {
			out = append(out, p.Clone())
			return true
		})
	}
	return out
}

// degradableRule is VOTE(n_σ−1−m, n_σ−1) at m = 1 — a unanimity-respecting
// rule, as every VOTE instance with threshold ≤ vector length is.
var degradableRule = Vote(func(nSub int) int { return nSub - 2 })

func TestFastDecisionUnanimousComplete(t *testing.T) {
	tr := mustNew(t, 5, 2, 0)
	self := types.NodeID(1)
	paths := selfFreePaths(tr, self)
	for _, p := range paths {
		if err := tr.Set(p, 5); err != nil {
			t.Fatal(err)
		}
	}
	v, ok := tr.FastDecision(self)
	if !ok || v != 5 {
		t.Fatalf("FastDecision = (%s, %v), want (5, true)", v, ok)
	}
	if got := tr.Resolve(self, degradableRule); got != v {
		t.Fatalf("Resolve = %s, FastDecision = %s", got, v)
	}
}

func TestFastDecisionIncompleteDefers(t *testing.T) {
	tr := mustNew(t, 5, 2, 0)
	self := types.NodeID(1)
	paths := selfFreePaths(tr, self)
	for _, p := range paths[:len(paths)-1] { // one non-default store missing
		if err := tr.Set(p, 5); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := tr.FastDecision(self); ok {
		t.Fatal("incomplete non-default tree must defer to Resolve")
	}
}

func TestFastDecisionAllAbsentOrDefault(t *testing.T) {
	tr := mustNew(t, 5, 2, 0)
	self := types.NodeID(2)
	// Entirely absent: every level resolves V_d under any rule.
	if v, ok := tr.FastDecision(self); !ok || v != types.Default {
		t.Fatalf("absent tree: FastDecision = (%s, %v), want (V_d, true)", v, ok)
	}
	// A mix of stored V_d and absence is still forced, even incomplete.
	if err := tr.Set(types.Path{0}, types.Default); err != nil {
		t.Fatal(err)
	}
	v, ok := tr.FastDecision(self)
	if !ok || v != types.Default {
		t.Fatalf("default-only tree: FastDecision = (%s, %v), want (V_d, true)", v, ok)
	}
	if got := tr.Resolve(self, degradableRule); got != types.Default {
		t.Fatalf("Resolve = %s, want V_d", got)
	}
}

func TestFastDecisionConflictDefers(t *testing.T) {
	tr := mustNew(t, 5, 2, 0)
	if err := tr.Set(types.Path{0}, 5); err != nil {
		t.Fatal(err)
	}
	if err := tr.Set(types.Path{0, 2}, 6); err != nil {
		t.Fatal(err)
	}
	if _, ok := tr.FastDecision(1); ok {
		t.Fatal("conflicting stores must defer to Resolve")
	}
}

func TestFastDecisionSenderNeverFast(t *testing.T) {
	tr := mustNew(t, 5, 2, 3)
	if _, ok := tr.FastDecision(3); ok {
		t.Fatal("the sender's own decision is never the fast path's to make")
	}
}

func TestFastDecisionResetClearsState(t *testing.T) {
	tr := mustNew(t, 5, 2, 0)
	self := types.NodeID(1)
	if err := tr.Set(types.Path{0}, 5); err != nil {
		t.Fatal(err)
	}
	if err := tr.Set(types.Path{0, 2}, 6); err != nil {
		t.Fatal(err)
	}
	tr.Reset()
	for _, p := range selfFreePaths(tr, self) {
		if err := tr.Set(p, 9); err != nil {
			t.Fatal(err)
		}
	}
	if v, ok := tr.FastDecision(self); !ok || v != 9 {
		t.Fatalf("after Reset: FastDecision = (%s, %v), want (9, true)", v, ok)
	}
}

// TestFastDecisionExhaustive enumerates every assignment of
// {absent, V_d, 1, 2} to the self-free paths of a small tree and checks the
// one property the relay layer relies on: whenever FastDecision claims the
// decision, it matches the full bottom-up Resolve under the degradable rule.
func TestFastDecisionExhaustive(t *testing.T) {
	const n, depth = 4, 2
	tr := mustNew(t, n, depth, 0)
	for self := types.NodeID(1); int(self) < n; self++ {
		paths := selfFreePaths(tr, self)
		vals := []types.Value{types.Default, 1, 2} // index 0 in assign = absent
		total := 1
		for range paths {
			total *= len(vals) + 1
		}
		for a := 0; a < total; a++ {
			tr.Reset()
			x := a
			for _, p := range paths {
				c := x % (len(vals) + 1)
				x /= len(vals) + 1
				if c > 0 {
					if err := tr.Set(p, vals[c-1]); err != nil {
						t.Fatal(err)
					}
				}
			}
			fv, ok := tr.FastDecision(self)
			if !ok {
				continue
			}
			if rv := tr.Resolve(self, degradableRule); rv != fv {
				t.Fatalf("self=%d assignment %d: FastDecision = %s, Resolve = %s",
					int(self), a, fv, rv)
			}
		}
	}
}
