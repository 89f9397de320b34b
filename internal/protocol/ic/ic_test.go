package ic

import (
	"fmt"
	"testing"

	"degradable/internal/adversary"
	"degradable/internal/types"
)

func values(n int) []types.Value {
	vals := make([]types.Value, n)
	for i := range vals {
		vals[i] = types.Value(100 + 10*i)
	}
	return vals
}

func TestValidate(t *testing.T) {
	if err := (Params{N: 5, M: 1, U: 2, Degradable: true}).Validate(); err != nil {
		t.Errorf("valid degradable IC rejected: %v", err)
	}
	if err := (Params{N: 4, M: 1, U: 1}).Validate(); err != nil {
		t.Errorf("valid classic IC rejected: %v", err)
	}
	if err := (Params{N: 4, M: 1, U: 2, Degradable: true}).Validate(); err == nil {
		t.Error("undersized degradable IC should error")
	}
	if err := (Params{N: 3, M: 1}).Validate(); err == nil {
		t.Error("undersized classic IC should error")
	}
}

func TestRunValidation(t *testing.T) {
	p := Params{N: 5, M: 1, U: 2, Degradable: true}
	if _, err := Run(p, values(4), nil); err == nil {
		t.Error("wrong value count should error")
	}
}

func TestFaultFreeIC(t *testing.T) {
	for _, p := range []Params{
		{N: 4, M: 1, U: 1},
		{N: 5, M: 1, U: 2, Degradable: true},
	} {
		vals := values(p.N)
		res, err := Run(p, vals, nil)
		if err != nil {
			t.Fatal(err)
		}
		verdict := Check(p, vals, 0, res)
		if !verdict.OK || !verdict.Graceful {
			t.Errorf("%+v: fault-free verdict = %+v", p, verdict)
		}
		// Every vector equals the private values exactly.
		for id, vec := range res.Vectors {
			for s, got := range vec {
				if got != vals[s] {
					t.Errorf("node %d entry %d = %v, want %v", int(id), s, got, vals[s])
				}
			}
		}
	}
}

func TestClassicICWithOneFault(t *testing.T) {
	p := Params{N: 4, M: 1, U: 1}
	vals := values(4)
	plan := func(types.NodeID) map[types.NodeID]adversary.Strategy {
		return map[types.NodeID]adversary.Strategy{
			2: adversary.Lie{Value: 999},
		}
	}
	res, err := Run(p, vals, plan)
	if err != nil {
		t.Fatal(err)
	}
	verdict := Check(p, vals, types.NewNodeSet(2), res)
	if !verdict.OK {
		t.Fatalf("verdict = %+v", verdict)
	}
	// Fault-free entries are exact despite the liar.
	for _, id := range []types.NodeID{0, 1, 3} {
		for _, s := range []int{0, 1, 3} {
			if got := res.Vectors[id][s]; got != vals[s] {
				t.Errorf("node %d entry %d = %v", int(id), s, got)
			}
		}
	}
	// All fault-free nodes agree on the faulty node's entry too.
	e0, e1, e3 := res.Vectors[0][2], res.Vectors[1][2], res.Vectors[3][2]
	if e0 != e1 || e1 != e3 {
		t.Errorf("faulty entry disagrees: %v %v %v", e0, e1, e3)
	}
}

// Degradable IC in the degraded regime: per-entry conditions hold for every
// battery scenario over representative fault sets.
func TestDegradableICDegradedRegime(t *testing.T) {
	p := Params{N: 5, M: 1, U: 2, Degradable: true}
	vals := values(5)
	for _, faultyIDs := range [][]types.NodeID{{3, 4}, {0, 2}, {1, 4}} {
		faulty := types.NewNodeSet(faultyIDs...)
		honest := make([]types.NodeID, 0, 5)
		for i := 0; i < 5; i++ {
			if !faulty.Contains(types.NodeID(i)) {
				honest = append(honest, types.NodeID(i))
			}
		}
		for _, sc := range adversary.Battery() {
			sc := sc
			plan := func(sender types.NodeID) map[types.NodeID]adversary.Strategy {
				ctx := adversary.Context{
					N: 5, Sender: sender, SenderValue: vals[sender],
					Alt: 999, Honest: honest,
				}
				return sc.Build(faultyIDs, 21, ctx)
			}
			res, err := Run(p, vals, plan)
			if err != nil {
				t.Fatal(err)
			}
			verdict := Check(p, vals, faulty, res)
			if !verdict.OK {
				t.Errorf("faulty=%v scenario=%s: %s", faulty, sc.Name, verdict.Reason)
			}
			if !verdict.Graceful {
				t.Errorf("faulty=%v scenario=%s: graceful degradation failed", faulty, sc.Name)
			}
		}
	}
}

// The Bhandari boundary: a maximally-resilient classic IC (OM(2), N=7,
// tolerates ⌊6/3⌋=2) degrades NON-gracefully at f=3 under some adversary —
// some entry ends with two distinct non-default values across fault-free
// nodes — while the 1/4-degradable IC on the same 7 nodes keeps every entry
// in two classes through f=4.
func TestBhandariBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("Bhandari sweep skipped in -short mode")
	}
	vals := values(7)

	// Side 1: classic IC breaks non-gracefully beyond N/3.
	classic := Params{N: 7, M: 2, U: 2}
	broken := false
	faultyIDs := []types.NodeID{0, 5, 6}
	faulty := types.NewNodeSet(faultyIDs...)
	honest := []types.NodeID{1, 2, 3, 4}
	for _, sc := range adversary.Battery() {
		sc := sc
		plan := func(sender types.NodeID) map[types.NodeID]adversary.Strategy {
			ctx := adversary.Context{N: 7, Sender: sender, SenderValue: vals[sender], Alt: 999, Honest: honest}
			return sc.Build(faultyIDs, 5, ctx)
		}
		res, err := Run(classic, vals, plan)
		if err != nil {
			t.Fatal(err)
		}
		// Check the *degradable* per-entry conditions at (m=2, u=3): if
		// they fail, the classic IC degraded non-gracefully.
		v := Check(Params{N: 7, M: 2, U: 3}, vals, faulty, res)
		if !v.OK {
			broken = true
			break
		}
	}
	if !broken {
		t.Error("no battery adversary broke classic IC at f=3; the Bhandari contrast is vacuous")
	}

	// Side 2: degradable IC (1/4) keeps every entry two-class through f=4.
	degr := Params{N: 7, M: 1, U: 4, Degradable: true}
	faultyIDs = []types.NodeID{0, 2, 5, 6}
	faulty = types.NewNodeSet(faultyIDs...)
	honest = []types.NodeID{1, 3, 4}
	for _, sc := range adversary.Battery() {
		sc := sc
		plan := func(sender types.NodeID) map[types.NodeID]adversary.Strategy {
			ctx := adversary.Context{N: 7, Sender: sender, SenderValue: vals[sender], Alt: 999, Honest: honest}
			return sc.Build(faultyIDs, 5, ctx)
		}
		res, err := Run(degr, vals, plan)
		if err != nil {
			t.Fatal(err)
		}
		v := Check(degr, vals, faulty, res)
		if !v.OK {
			t.Errorf("degradable IC scenario=%s: %s", sc.Name, v.Reason)
		}
		if !v.Graceful {
			t.Errorf("degradable IC scenario=%s: graceful failed", sc.Name)
		}
	}
}

func TestCheckDetectsBadVector(t *testing.T) {
	p := Params{N: 5, M: 1, U: 2, Degradable: true}
	vals := values(5)
	res, err := Run(p, vals, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one fault-free node's entry for a fault-free sender.
	res.Vectors[1][2] = 555
	verdict := Check(p, vals, 0, res)
	if verdict.OK {
		t.Error("corrupted vector should fail the check")
	}
}

func TestEntryConditionsRecorded(t *testing.T) {
	p := Params{N: 5, M: 1, U: 2, Degradable: true}
	vals := values(5)
	res, err := Run(p, vals, nil)
	if err != nil {
		t.Fatal(err)
	}
	verdict := Check(p, vals, 0, res)
	if len(verdict.EntryConditions) != 5 {
		t.Fatalf("entry conditions = %v", verdict.EntryConditions)
	}
	for s, c := range verdict.EntryConditions {
		if c != "D.1" {
			t.Errorf("entry %d condition = %s, want D.1", s, c)
		}
	}
	_ = fmt.Sprintf
}

func BenchmarkRun(b *testing.B) {
	p := Params{N: 5, M: 1, U: 2, Degradable: true}
	vals := values(5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(p, vals, nil); err != nil {
			b.Fatal(err)
		}
	}
}
