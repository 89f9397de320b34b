package core

import (
	"fmt"
	"testing"

	"degradable/internal/adversary"
	"degradable/internal/protocol/relay"
	"degradable/internal/round"
	"degradable/internal/spec"
	"degradable/internal/types"
)

// The proof of Theorem 1 is an induction over the EIG tree: the subtree at
// an inner path σ is a BYZ instance of its own, with n_σ = N−|σ|+1 nodes,
// sender last(σ) and the same m and u (docs/PROOFS.md, "The spec at every
// path"). The check here judges each of those sub-instances of one run
// with spec.Check, reading every fault-free receiver's resolved value at σ
// from the record of its resolve sweep.

// subInstance is the sub-instance at one inner path of a run.
type subInstance struct {
	path types.Path
	exec spec.Execution
}

// subInstances builds, for every inner path σ of a finished run of p with
// the given sender value and fault set, the spec.Execution of the
// sub-instance at σ: sender last(σ); its value, the run's input at the
// root and otherwise what last(σ) stored at σ's parent; the faults among
// last(σ) and the nodes off σ; and the resolved value at σ of every
// fault-free receiver off σ.
func subInstances(t *testing.T, p Params, value types.Value, nodes []round.Node, faulty types.NodeSet) []subInstance {
	t.Helper()
	honest := func(id types.NodeID) *relay.Node {
		nd, _ := nodes[id].(*relay.Node)
		return nd
	}
	var any *relay.Node
	records := make(map[types.NodeID]func(types.Path) types.Value)
	for i := range nodes {
		id := types.NodeID(i)
		if faulty.Contains(id) {
			continue
		}
		nd := honest(id)
		if nd == nil {
			t.Fatalf("fault-free node %d is a %T", i, nodes[i])
		}
		any = nd
		if id != p.Sender {
			records[id] = nd.Tree().Record(id, p.Rule()).At
		}
	}
	if any == nil {
		return nil
	}
	var out []subInstance
	for l := 1; l < p.Depth(); l++ {
		any.Tree().ForEachPath(l, -1, func(path types.Path) bool {
			last := path.Last()
			e := spec.Execution{M: p.M, U: p.U, Sender: last, SenderValue: value,
				Decisions: make(map[types.NodeID]types.Value)}
			if l > 1 && !faulty.Contains(last) {
				e.SenderValue = honest(last).Tree().Get(path[:l-1])
			}
			for i := range nodes {
				id := types.NodeID(i)
				if id == last || !path.Contains(id) {
					if faulty.Contains(id) {
						e.Faulty = e.Faulty.Add(id)
					} else if id != last {
						e.Decisions[id] = records[id](path)
					}
				}
			}
			out = append(out, subInstance{path: path.Clone(), exec: e})
			return true
		})
	}
	return out
}

// checkSubInstances runs p under strategies on the in-process engine and
// judges the sub-instances docs/PROOFS.md states the spec for, with
// spec.Check picking the condition from f_σ, the faults among σ's
// participants: every σ whose sender last(σ) is fault-free (D.1 or D.3),
// the root (Theorem 1), and a faulty-ended σ with no more faults than
// the relay rounds it has left (D.2 or D.4).
func checkSubInstances(t *testing.T, p Params, strategies map[types.NodeID]adversary.Strategy, what string) {
	t.Helper()
	nodes, err := p.Nodes(alpha)
	if err != nil {
		t.Fatal(err)
	}
	if err := adversary.Wrap(nodes, p.N, p.Depth(), p.Sender, alpha, strategies); err != nil {
		t.Fatal(err)
	}
	if _, err := round.Run(nodes, round.Config{Rounds: p.Depth()}, round.Reference{}); err != nil {
		t.Fatal(err)
	}
	var faulty types.NodeSet
	for id := range strategies {
		faulty = faulty.Add(id)
	}
	for _, sub := range subInstances(t, p, alpha, nodes, faulty) {
		if left := p.Depth() - len(sub.path); sub.exec.SenderFaulty() && len(sub.path) > 1 && sub.exec.F() > left {
			continue
		}
		if v := spec.Check(sub.exec); !v.OK {
			t.Errorf("%s: sub-instance at %s (faults %v): %s violated: %s",
				what, sub.path, sub.exec.Faulty, v.Condition, v.Reason)
		}
	}
}

// TestSubInstancesMatchTheRun pins the builder to the run itself: the
// sub-instance at the root is the run's own execution, with the decisions
// the nodes reported.
func TestSubInstancesMatchTheRun(t *testing.T) {
	p := Params{N: 7, M: 2, U: 2}
	strategies := map[types.NodeID]adversary.Strategy{3: adversary.Lie{Value: beta}}
	nodes, err := p.Nodes(alpha)
	if err != nil {
		t.Fatal(err)
	}
	if err := adversary.Wrap(nodes, p.N, p.Depth(), p.Sender, alpha, strategies); err != nil {
		t.Fatal(err)
	}
	res, err := round.Run(nodes, round.Config{Rounds: p.Depth()}, round.Reference{})
	if err != nil {
		t.Fatal(err)
	}
	subs := subInstances(t, p, alpha, nodes, types.NewNodeSet(3))
	if want := 1 + (p.N - 1); len(subs) != want {
		t.Fatalf("%d sub-instances, want %d (the root and its children)", len(subs), want)
	}
	root := subs[0].exec
	if root.Sender != p.Sender || root.SenderValue != alpha || root.Faulty != types.NewNodeSet(3) {
		t.Fatalf("root sub-instance %+v", root)
	}
	for id, d := range root.Decisions {
		if res.Decisions[id] != d {
			t.Errorf("node %d: record says %v at the root, the run decided %v", int(id), d, res.Decisions[id])
		}
	}
	for _, sub := range subs[1:] {
		if j := sub.path.Last(); j != 3 && sub.exec.SenderValue != alpha {
			t.Errorf("sub-instance at %s: sender value %v, want the relayed %v", sub.path, sub.exec.SenderValue, alpha)
		}
	}
}

// TestBatterySubInstances is the per-path check over core's battery: every
// config, every fault set of size 0..u and every scenario.
func TestBatterySubInstances(t *testing.T) {
	for _, p := range configs() {
		all := make([]types.NodeID, p.N)
		for i := range all {
			all[i] = types.NodeID(i)
		}
		for f := 0; f <= p.U; f++ {
			types.Subsets(all, f, func(faulty types.NodeSet) bool {
				var honest []types.NodeID
				for _, id := range all {
					if !faulty.Contains(id) {
						honest = append(honest, id)
					}
				}
				ctx := adversary.Context{N: p.N, Sender: p.Sender, SenderValue: alpha, Alt: beta, Honest: honest}
				for _, sc := range adversary.Battery() {
					checkSubInstances(t, p, sc.Build(faulty.IDs(), 1234, ctx),
						fmt.Sprintf("N=%d m=%d u=%d faulty=%v scenario=%s", p.N, p.M, p.U, faulty, sc.Name))
				}
				return !t.Failed()
			})
		}
	}
}
