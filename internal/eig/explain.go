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
// The values shown are the record of one Resolve sweep (see resolve): this
// function applies no rule itself, so the explanation cannot disagree with
// the decision. The output is the paper's step-3 computation made visible —
// useful for teaching and for debugging adversary scenarios
// (`degradable degrade -explain`).
func (t *Tree) ExplainResolve(self types.NodeID, rule Rule, label func(nSub int) string) string {
	rec := t.Record(self, rule)
	var b strings.Builder
	fmt.Fprintf(&b, "resolution for receiver %d (N=%d, %d relay rounds):\n", int(self), t.n, t.depth)
	t.explain(&b, rec.vals, types.Path{t.sender}, self, label, 1)
	return b.String()
}

// Record is the record of one resolve sweep (see resolve): the resolved
// value of every path for one receiver.
type Record struct {
	rk   *types.PathRanker
	vals []types.Value
}

// Record resolves the tree for receiver self with rule, as Resolve does,
// and returns the sweep's record. It allocates one value per path.
func (t *Tree) Record(self types.NodeID, rule Rule) Record {
	rec := append([]types.Value(nil), t.vals...)
	t.resolve(self, rule, rec)
	return Record{rk: t.rk, vals: rec}
}

// At is p's resolved value: a leaf's stored value (Default when absent),
// an inner path's rule outcome. A path through the receiver, unless the
// receiver is the sender, holds its stored value, which no resolution
// reads; an invalid path reads Default.
func (r Record) At(p types.Path) types.Value {
	if idx, ok := r.rk.Index(p); ok {
		return r.vals[idx]
	}
	return types.Default
}

// explain prints the subtree at p from rec: a leaf's value, or an inner
// path's direct value, its children in ascending node-ID order (skipping
// self) and the vote vector — the direct value, then each child's entry —
// with p's outcome. The walk only fixes the output order.
func (t *Tree) explain(b *strings.Builder, rec []types.Value, p types.Path, self types.NodeID,
	label func(nSub int) string, indent int) {
	pad := strings.Repeat("  ", indent)
	idx, _ := t.rk.Index(p)
	status := ""
	if !t.Has(p) {
		status = " (absent)"
	}
	if len(p) == t.depth {
		fmt.Fprintf(b, "%s[%s] = %s%s\n", pad, p, rec[idx], status)
		return
	}
	fmt.Fprintf(b, "%s[%s] direct = %s%s\n", pad, p, t.vals[idx], status)
	votes := []string{t.vals[idx].String()}
	for j := 0; j < t.n; j++ {
		id := types.NodeID(j)
		if id == self || p.Contains(id) {
			continue
		}
		child := p.Append(id)
		t.explain(b, rec, child, self, label, indent+1)
		ci, _ := t.rk.Index(child)
		votes = append(votes, rec[ci].String())
	}
	nSub := t.n - (len(p) - 1)
	name := "rule"
	if label != nil {
		name = label(nSub)
	}
	fmt.Fprintf(b, "%s[%s] %s over [%s] → %s\n", pad, p, name, strings.Join(votes, " "), rec[idx])
}
