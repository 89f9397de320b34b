package eig

import (
	"fmt"
	"strings"

	"degradable/internal/types"
)

// ExplainResolve renders the bottom-up resolution of the tree for receiver
// self as an indented outline: one line per tree node showing the stored
// claim, and for internal nodes the gathered vote vector with the rule's
// outcome. label names the rule applied at a level (e.g. "VOTE(3,4)") given
// the sub-protocol size; it may be nil.
//
// The output is the paper's step-3 computation made visible — useful for
// teaching and for debugging adversary scenarios (`degradable degrade -explain`).
func (t *Tree) ExplainResolve(self types.NodeID, rule Rule, label func(nSub int) string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "resolution for receiver %d (N=%d, %d relay rounds):\n", int(self), t.n, t.depth)
	t.explain(&b, types.Path{t.sender}, self, rule, label, 1)
	return b.String()
}

func (t *Tree) explain(b *strings.Builder, p types.Path, self types.NodeID, rule Rule,
	label func(nSub int) string, indent int) types.Value {
	pad := strings.Repeat("  ", indent)
	if len(p) == t.depth {
		v := t.Get(p)
		status := ""
		if !t.Has(p) {
			status = " (absent)"
		}
		fmt.Fprintf(b, "%s[%s] = %s%s\n", pad, p, v, status)
		return v
	}
	own := t.Get(p)
	ownStatus := ""
	if !t.Has(p) {
		ownStatus = " (absent)"
	}
	fmt.Fprintf(b, "%s[%s] direct = %s%s\n", pad, p, own, ownStatus)
	nSub := t.n - (len(p) - 1)
	vals := []types.Value{own}
	for j := 0; j < t.n; j++ {
		id := types.NodeID(j)
		if id == self || p.Contains(id) {
			continue
		}
		vals = append(vals, t.explain(b, p.Append(id), self, rule, label, indent+1))
	}
	out := rule(nSub, vals)
	name := "rule"
	if label != nil {
		name = label(nSub)
	}
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = v.String()
	}
	fmt.Fprintf(b, "%s[%s] %s over [%s] → %s\n", pad, p, name, strings.Join(parts, " "), out)
	return out
}
