package eig

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"degradable/internal/types"
	"degradable/internal/vote"
)

func TestExplainResolveDepthTwo(t *testing.T) {
	tr := mustNew(t, 4, 2, 0)
	if err := tr.Set(types.Path{0}, 42); err != nil {
		t.Fatal(err)
	}
	if err := tr.Set(types.Path{0, 2}, 99); err != nil {
		t.Fatal(err)
	}
	// Path [0,3] absent on purpose.
	rule := RuleFunc(func(nSub int, vals []types.Value) types.Value {
		return vote.Vote(nSub-1-1, vals)
	})
	out := tr.ExplainResolve(1, rule, func(nSub int) string { return "VOTE(2,3)" })
	for _, want := range []string{
		"resolution for receiver 1",
		"[0] direct = 42",
		"[0→2] = 99",
		"[0→3] = V_d (absent)",
		"VOTE(2,3) over [42 99 V_d]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
	// The explained outcome matches Resolve.
	if !strings.Contains(out, "→ "+tr.Resolve(1, rule).String()) {
		t.Errorf("explained outcome differs from Resolve:\n%s", out)
	}
}

func TestExplainResolveDepthThree(t *testing.T) {
	tr := mustNew(t, 7, 3, 0)
	for l := 1; l <= 3; l++ {
		tr.ForEachPath(l, -1, func(p types.Path) bool {
			_ = tr.Set(p, 5)
			return true
		})
	}
	rule := RuleFunc(func(nSub int, vals []types.Value) types.Value {
		return vote.Vote(nSub-1-2, vals)
	})
	out := tr.ExplainResolve(1, rule, nil)
	// A depth-3 explanation nests three levels and uses the fallback label.
	if !strings.Contains(out, "rule over") {
		t.Errorf("fallback label missing:\n%s", out)
	}
	if !strings.Contains(out, "[0→2→3]") {
		t.Errorf("leaf paths missing:\n%s", out)
	}
	if !strings.Contains(out, "→ 5") {
		t.Errorf("unanimous outcome missing:\n%s", out)
	}
}

// TestExplainMatchesOracle holds every inner line of a depth-3 explanation
// over mixed values to the recursive definition: the vote vector is the
// path's direct value then each child's resolution, and the outcome is the
// path's own resolution, all as the string-map oracle computes them.
func TestExplainMatchesOracle(t *testing.T) {
	const n, depth, self = 6, 3, 2
	tr := mustNew(t, n, depth, 0)
	oracle := newMapTree(n, depth, 0)
	rng := rand.New(rand.NewSource(3))
	for _, p := range enumeratePaths(tr) {
		if rng.Intn(4) == 0 {
			continue // absent: reads as V_d
		}
		v := types.Value(rng.Intn(3))
		_ = tr.Set(p, v)
		_ = oracle.Set(p, v)
	}
	rule := RuleFunc(func(nSub int, vals []types.Value) types.Value {
		return vote.Vote(nSub-1-1, vals)
	})
	out := tr.ExplainResolve(self, rule, nil)
	lines := 0
	for l := 1; l < depth; l++ {
		tr.ForEachPath(l, self, func(p types.Path) bool {
			votes := []string{oracle.Get(p).String()}
			for j := 0; j < n; j++ {
				if id := types.NodeID(j); id != self && !p.Contains(id) {
					votes = append(votes, oracle.resolve(p.Append(id), self, rule).String())
				}
			}
			want := fmt.Sprintf("[%s] rule over [%s] → %s\n", p, strings.Join(votes, " "), oracle.resolve(p, self, rule))
			if !strings.Contains(out, want) {
				t.Errorf("explanation lacks %q:\n%s", want, out)
			}
			lines++
			return true
		})
	}
	if lines != 1+(n-2) {
		t.Errorf("checked %d inner paths, want %d", lines, 1+(n-2))
	}
}
