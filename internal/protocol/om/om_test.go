package om_test

import (
	"fmt"
	"math/rand"
	"testing"

	"degradable/internal/adversary"
	"degradable/internal/eig"
	"degradable/internal/protocol/om"
	"degradable/internal/runner"
	"degradable/internal/types"
	"degradable/internal/vote"
)

const (
	alpha types.Value = 100
	beta  types.Value = 200
)

func TestValidate(t *testing.T) {
	tests := []struct {
		name    string
		p       om.Params
		wantErr bool
	}{
		{"OM(1) minimal", om.Params{N: 4, M: 1}, false},
		{"OM(2) minimal", om.Params{N: 7, M: 2}, false},
		{"OM(0)", om.Params{N: 2, M: 0}, false},
		{"too few", om.Params{N: 3, M: 1}, true},
		{"negative m", om.Params{N: 4, M: -1}, true},
		{"bad sender", om.Params{N: 4, M: 1, Sender: 4}, true},
		{"single node", om.Params{N: 1, M: 0}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.p.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestThresholds(t *testing.T) {
	m, u := om.Params{N: 7, M: 2}.Thresholds()
	if m != 2 || u != 2 {
		t.Errorf("Thresholds = (%d,%d), want (2,2)", m, u)
	}
	n, depth, sender := om.Params{N: 7, M: 2, Sender: 3}.System()
	if n != 7 || depth != 3 || sender != 3 {
		t.Errorf("System = (%d,%d,%d)", n, depth, int(sender))
	}
}

// OM(m) must satisfy D.1/D.2 for every fault set of size ≤ m under the full
// battery — the Lamport-Shostak-Pease correctness theorem.
func TestOMCorrectUpToM(t *testing.T) {
	for _, p := range []om.Params{{N: 4, M: 1}, {N: 7, M: 2}} {
		p := p
		t.Run(fmt.Sprintf("OM(%d)_N%d", p.M, p.N), func(t *testing.T) {
			all := make([]types.NodeID, p.N)
			for i := range all {
				all[i] = types.NodeID(i)
			}
			for f := 0; f <= p.M; f++ {
				types.Subsets(all, f, func(faulty types.NodeSet) bool {
					honest := make([]types.NodeID, 0, p.N)
					for _, id := range all {
						if !faulty.Contains(id) {
							honest = append(honest, id)
						}
					}
					ctx := adversary.Context{N: p.N, Sender: 0, SenderValue: alpha, Alt: beta, Honest: honest}
					for _, sc := range adversary.Battery() {
						in := runner.Instance{
							Protocol:    p,
							SenderValue: alpha,
							Strategies:  sc.Build(faulty.IDs(), 5, ctx),
						}
						_, verdict, err := in.Run()
						if err != nil {
							t.Fatal(err)
						}
						if !verdict.OK {
							t.Errorf("faulty=%v scenario=%s: %s: %s",
								faulty, sc.Name, verdict.Condition, verdict.Reason)
						}
					}
					return !t.Failed()
				})
			}
		})
	}
}

// Beyond m faults OM(m) can be made to violate agreement outright — the gap
// that motivates degradable agreement (the contrast behind experiment E4).
// At the tight size N = 3m+1 = 4, two colluding faults (a two-faced sender
// plus a camp-confirming receiver) drive the two fault-free receivers to two
// different non-default values, which even the degraded conditions D.3/D.4
// forbid. Degradable agreement at its own tight size never does this (see
// core's exhaustive tests).
func TestOMBreaksBeyondM(t *testing.T) {
	p := om.Params{N: 4, M: 1}
	all := []types.NodeID{0, 1, 2, 3}
	violated := false
	types.Subsets(all, 2, func(faulty types.NodeSet) bool {
		honest := make([]types.NodeID, 0, 4)
		for _, id := range all {
			if !faulty.Contains(id) {
				honest = append(honest, id)
			}
		}
		ctx := adversary.Context{N: 4, Sender: 0, SenderValue: alpha, Alt: beta, Honest: honest}
		for _, sc := range adversary.Battery() {
			in := runner.Instance{Protocol: p, SenderValue: alpha, Strategies: sc.Build(faulty.IDs(), 5, ctx)}
			res, _, err := in.Run()
			if err != nil {
				t.Fatal(err)
			}
			// Check the *degradable* conditions D.3/D.4 against OM's
			// decisions: if some fault-free receiver lands on a value that
			// is neither the sender's nor V_d (sender honest), or two
			// distinct non-default values appear (sender faulty), OM has
			// degraded non-gracefully.
			senderFaulty := faulty.Contains(0)
			distinct := make(map[types.Value]bool)
			for id, d := range res.Decisions {
				if id == 0 || faulty.Contains(id) {
					continue
				}
				distinct[d] = true
				if !senderFaulty && d != alpha && d != types.Default {
					violated = true
				}
			}
			if senderFaulty {
				nonDefault := 0
				for d := range distinct {
					if d != types.Default {
						nonDefault++
					}
				}
				if nonDefault > 1 {
					violated = true
				}
			}
			if violated {
				return false
			}
		}
		return true
	})
	if !violated {
		t.Error("no battery adversary broke OM(1) beyond m faults; the baseline contrast is vacuous")
	}
}

func TestNodesError(t *testing.T) {
	if _, err := (om.Params{N: 3, M: 1}).Nodes(alpha); err == nil {
		t.Error("invalid params should fail")
	}
}

// majorityAt is OM's resolution by its recursive definition: a leaf reads
// its stored value, an inner path the strict majority of its own value
// and its children's, skipping self's.
func majorityAt(tr *eig.Tree, p types.Path, self types.NodeID) types.Value {
	if len(p) == tr.Depth() {
		return tr.Get(p)
	}
	vals := []types.Value{tr.Get(p)}
	for j := 0; j < tr.N(); j++ {
		if id := types.NodeID(j); id != self && !p.Contains(id) {
			vals = append(vals, majorityAt(tr, p.Append(id), self))
		}
	}
	return vote.Majority(vals)
}

// TestRuleRecordsMajority holds the record of OM's rule to strict majority
// at every path, for the sender, whose vote vectors keep every child, and
// for each receiver. The first tree is the case that tells majority from a
// threshold fixed by nSub alone: the sender's root vector a, a, b, c has
// no strict majority, while VOTE(2) would pick a.
func TestRuleRecordsMajority(t *testing.T) {
	rule := om.Params{N: 4, M: 1}.Rule()
	tr, err := eig.New(4, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		p types.Path
		v types.Value
	}{{types.Path{0}, alpha}, {types.Path{0, 1}, alpha}, {types.Path{0, 2}, beta}, {types.Path{0, 3}, 300}} {
		if err := tr.Set(c.p, c.v); err != nil {
			t.Fatal(err)
		}
	}
	if got := tr.Record(0, rule).At(types.Path{0}); got != types.Default {
		t.Fatalf("sender's record at the root = %v, want V_d (no strict majority)", got)
	}
	rng := rand.New(rand.NewSource(3))
	for _, p := range []om.Params{{N: 4, M: 1}, {N: 7, M: 2}, {N: 5, M: 1, Sender: 4}} {
		tr, err := eig.New(p.N, p.Depth(), p.Sender)
		if err != nil {
			t.Fatal(err)
		}
		for l := 1; l <= p.Depth(); l++ {
			tr.ForEachPath(l, -1, func(path types.Path) bool {
				if rng.Intn(5) > 0 {
					_ = tr.Set(path, types.Value(rng.Intn(3)))
				}
				return true
			})
		}
		for self := 0; self < p.N; self++ {
			id := types.NodeID(self)
			rec := tr.Record(id, p.Rule())
			for l := 1; l <= p.Depth(); l++ {
				tr.ForEachPath(l, -1, func(path types.Path) bool {
					if id != p.Sender && path.Contains(id) {
						return true
					}
					if got, want := rec.At(path), majorityAt(tr, path, id); got != want {
						t.Fatalf("%+v self=%d: record at %s = %v, majority %v", p, self, path, got, want)
					}
					return true
				})
			}
		}
	}
}
