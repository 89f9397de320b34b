//go:build !race

package acast

import (
	"fmt"
	"testing"

	"degradable/internal/round"
	"degradable/internal/types"
)

// quiet decides at Start and never sends: a run over quiet nodes allocates
// its result and nothing else.
type quiet types.NodeID

func (q quiet) ID() types.NodeID                        { return types.NodeID(q) }
func (q quiet) Start() []types.Message                  { return nil }
func (q quiet) OnDeliver(types.Message) []types.Message { return nil }
func (q quiet) Decided() (types.Value, bool)            { return 0, true }

// presize gives a node's protocol state the room a run grows it to — A-Cast
// tallies for n values, ABA vote state for 4·abaRoundWindow rounds — so that
// what a measured run allocates is what it borrows, not what the node keeps.
func presize(nd round.AsyncNode, n int) {
	if b, ok := nd.(*byzantine); ok {
		nd = b.inner
	}
	switch nd := nd.(type) {
	case *Node:
		for i := range nd.inst {
			nd.inst[i].echoes.more = make([]tally, 0, n)
			nd.inst[i].readies.more = make([]tally, 0, n)
		}
	case *ABA:
		nd.rounds = make([]abaRound, 0, 4*abaRoundWindow)
	}
}

// TestRunAsyncAllocsPerRun: with the pools warm, a run allocates its result
// and nothing else. Every cell — A-Cast and ABA, all five policies, honest
// or with node n−1 behind the random-value Byzantine wrapper — must allocate
// the objects a run of quiet nodes allocates, ±1 for a collection that
// empties a pool between two runs. Measured (Go 1.24): 8 objects at n = 4
// and 12 at n = 31, the result's maps being the difference. The send
// buffers, the slab, the policy's queue and the policy's and the wrapper's
// sources all come back from their pools; a node or wrapper that failed to
// hand one back would cost allocations in the next run. The nodes' own
// protocol state is presized, so the count is only what the run borrows.
// The race detector drops pooled objects on purpose, so the guard runs
// without it.
func TestRunAsyncAllocsPerRun(t *testing.T) {
	for _, n := range []int{4, 31} {
		quietNodes := make([]round.AsyncNode, n)
		for i := range quietNodes {
			quietNodes[i] = quiet(i)
		}
		fifo := &round.FIFO{} // built ahead, as every measured cell's policy is
		want := testing.AllocsPerRun(20, func() {
			if _, err := round.RunAsync(quietNodes, round.AsyncConfig{Policy: fifo}); err != nil {
				t.Fatal(err)
			}
		})
		for _, aba := range []bool{false, true} {
			for _, sched := range []string{"fifo", "reorder", "delay", "adversarial", "starve:1"} {
				for _, byz := range []bool{false, true} {
					name := fmt.Sprintf("aba=%v/n=%d/%s/byzantine=%v", aba, n, sched, byz)
					got := allocsPerStep(func() func() {
						nodes := runNodes(aba, n, byz, 5)
						for _, nd := range nodes {
							presize(nd, n)
						}
						policy, err := round.ParsePolicy(sched, 5)
						if err != nil {
							t.Fatal(err)
						}
						// A starved node never decides, so the run does not
						// wait for it; nor for a Byzantine one.
						cfg := round.AsyncConfig{Policy: policy}
						for i := 0; i < n; i++ {
							if !(sched == "starve:1" && i == 1) && !(byz && i == n-1) {
								cfg.WaitFor = cfg.WaitFor.Add(types.NodeID(i))
							}
						}
						return func() {
							if _, err := round.RunAsync(nodes, cfg); err != nil {
								t.Fatal(err)
							}
						}
					})
					if got < want-1 || got > want+1 {
						t.Errorf("%s: a warm run allocates %v objects, a quiet one %v", name, got, want)
					}
				}
			}
		}
	}
}
