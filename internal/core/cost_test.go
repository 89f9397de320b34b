package core

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"testing"

	"degradable/internal/adversary"
	"degradable/internal/round"
	"degradable/internal/types"
)

// TestCostMatchesE6 holds the closed form to every BYZ row of the E6
// complexity golden, which counts real fault-free runs.
func TestCostMatchesE6(t *testing.T) {
	f, err := os.Open("../harness/testdata/E6.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows := 0
	for sc := bufio.NewScanner(f); sc.Scan(); {
		var n, m int
		var proto string
		var want Complexity
		if _, err := fmt.Sscan(sc.Text(), &n, &proto, &m, &want.Rounds, &want.Messages, &want.Bytes); err != nil ||
			!strings.HasPrefix(proto, "BYZ(") {
			continue
		}
		rows++
		if got := Cost(Params{N: n, M: m, U: m}); got != want {
			t.Errorf("N=%d %s m=%d: Cost %+v, E6 %+v", n, proto, m, got, want)
		}
	}
	if rows < 10 {
		t.Fatalf("read %d BYZ rows from E6.golden", rows)
	}
}

// TestCostOfDeepShape checks the serving benchmark's deep shape: the 8 210
// messages TestBatchArenaZeroAlloc pins, and that a run with one Lie or
// TwoFaced wrapper at any non-sender position — faults that omit nothing —
// sends and delivers exactly Cost's messages and bytes, with the bulk lane
// on and with it off.
func TestCostOfDeepShape(t *testing.T) {
	p := Params{N: 11, M: 3, U: 4}
	c := Cost(p)
	if c.Rounds != 4 || c.Messages != 8210 {
		t.Fatalf("Cost %+v, want 4 rounds and 8 210 messages", c)
	}
	faults := []adversary.Strategy{
		adversary.Lie{Value: 99},
		adversary.TwoFaced{A: types.NewNodeSet(1, 2), ValueA: 99, ValueB: 7},
	}
	for _, strat := range faults {
		for id := 1; id < p.N; id++ {
			for _, ch := range []round.Channel{nil, passThrough{}} {
				nodes, err := p.Nodes(42)
				if err != nil {
					t.Fatal(err)
				}
				if err := adversary.Wrap(nodes, p.N, p.Depth(), p.Sender, 42,
					map[types.NodeID]adversary.Strategy{types.NodeID(id): strat}); err != nil {
					t.Fatal(err)
				}
				res, err := round.Run(nodes, round.Config{Rounds: p.Depth(), Channel: ch}, round.Reference{})
				if err != nil {
					t.Fatal(err)
				}
				if res.Messages != c.Messages || res.Delivered != c.Messages || res.Bytes != c.Bytes {
					t.Errorf("%T at %d, channel %T: %d sent, %d delivered, %d B; Cost %+v",
						strat, id, ch, res.Messages, res.Delivered, res.Bytes, c)
				}
			}
		}
	}
}

// passThrough delivers every message unchanged but is not
// round.PerfectChannel, so it keeps the bulk lane off.
type passThrough struct{}

func (passThrough) Deliver(m types.Message) (types.Message, bool) { return m, true }
