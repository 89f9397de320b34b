package adversary

import (
	"testing"

	"degradable/internal/types"
)

func msg(round int, to types.NodeID, v types.Value) types.Message {
	return types.Message{Round: round, To: to, Value: v, Path: types.Path{0}}
}

func TestHonest(t *testing.T) {
	v, ok := (Honest{}).Corrupt(1, msg(1, 2, 7))
	if !ok || v != 7 {
		t.Errorf("Honest = (%v, %v)", v, ok)
	}
}

func TestSilent(t *testing.T) {
	if _, ok := (Silent{}).Corrupt(1, msg(1, 2, 7)); ok {
		t.Error("Silent should omit")
	}
}

func TestCrash(t *testing.T) {
	c := Crash{After: 1}
	if v, ok := c.Corrupt(1, msg(1, 2, 7)); !ok || v != 7 {
		t.Error("Crash should be honest in round 1")
	}
	if _, ok := c.Corrupt(1, msg(2, 2, 7)); ok {
		t.Error("Crash should be silent in round 2")
	}
}

func TestLie(t *testing.T) {
	if v, ok := (Lie{Value: 9}).Corrupt(1, msg(1, 2, 7)); !ok || v != 9 {
		t.Errorf("Lie = %v", v)
	}
}

func TestTwoFaced(t *testing.T) {
	s := TwoFaced{A: types.NewNodeSet(1, 2), ValueA: 10, ValueB: 20}
	if v, _ := s.Corrupt(0, msg(1, 1, 7)); v != 10 {
		t.Errorf("A-side = %v", v)
	}
	if v, _ := s.Corrupt(0, msg(1, 3, 7)); v != 20 {
		t.Errorf("B-side = %v", v)
	}
	own := TwoFaced{A: types.NewNodeSet(1), ValueA: 10, ValueB: 20, OnlyOwn: true}
	if v, _ := own.Corrupt(0, msg(2, 1, 7)); v != 7 {
		t.Errorf("OnlyOwn round-2 = %v, want honest", v)
	}
}

func TestPerRecipient(t *testing.T) {
	s := PerRecipient{Values: map[types.NodeID]types.Value{2: 5}}
	if v, _ := s.Corrupt(0, msg(1, 2, 7)); v != 5 {
		t.Errorf("scripted = %v", v)
	}
	if v, _ := s.Corrupt(0, msg(1, 3, 7)); v != 7 {
		t.Errorf("unscripted = %v, want honest", v)
	}
}

// TestTwoFacedMatchesPerRecipient holds KindTwoFaced's parity strategy to
// the per-recipient table it replaced — the lie for every odd recipient
// below n, the honest value otherwise — for every n up to 255, every
// recipient in the ID range and both rounds' honest values.
func TestTwoFacedMatchesPerRecipient(t *testing.T) {
	const lie = 99
	for n := 2; n <= 255; n++ {
		table := make(map[types.NodeID]types.Value, n/2)
		for i := 1; i < n; i += 2 {
			table[types.NodeID(i)] = lie
		}
		want := PerRecipient{Values: table}
		got, err := KindTwoFaced.Build(n, lie, 0)
		if err != nil {
			t.Fatal(err)
		}
		for to := 0; to <= 255; to++ {
			for _, m := range []types.Message{msg(1, types.NodeID(to), 7), msg(2, types.NodeID(to), types.Default)} {
				gv, gok := got.Corrupt(0, m)
				wv, wok := want.Corrupt(0, m)
				if gv != wv || gok != wok {
					t.Fatalf("n=%d to=%d round=%d: (%v, %v), table says (%v, %v)", n, to, m.Round, gv, gok, wv, wok)
				}
			}
		}
	}
}

// TestTwoFacedBuildsNoMap checks that arming a two-faced node builds no
// per-recipient table: the strategy is OddLie, and Build allocates at most
// the one interface box.
func TestTwoFacedBuildsNoMap(t *testing.T) {
	s, err := KindTwoFaced.Build(11, 99, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(OddLie); !ok {
		t.Fatalf("KindTwoFaced builds %T, want OddLie", s)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := KindTwoFaced.Build(11, 99, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("KindTwoFaced.Build allocates %.0f times, want at most 1", allocs)
	}
}

func TestScripted(t *testing.T) {
	s := Scripted{
		Values: map[types.NodeID]types.Value{2: 5},
		Omit:   types.NewNodeSet(3),
	}
	if v, ok := s.Corrupt(0, msg(1, 2, 7)); !ok || v != 5 {
		t.Errorf("scripted = (%v,%v)", v, ok)
	}
	if _, ok := s.Corrupt(0, msg(1, 3, 7)); ok {
		t.Error("omitted recipient should get nothing")
	}
	if v, ok := s.Corrupt(0, msg(1, 4, 7)); !ok || v != 7 {
		t.Errorf("unscripted = (%v,%v)", v, ok)
	}
}

func TestClaimSender(t *testing.T) {
	s := ClaimSender{Claim: 42}
	if v, _ := s.Corrupt(0, msg(1, 1, 7)); v != 7 {
		t.Errorf("round-1 = %v, want honest", v)
	}
	if v, _ := s.Corrupt(0, msg(2, 1, 7)); v != 42 {
		t.Errorf("round-2 = %v, want claim", v)
	}
}

func TestRandomLieDeterministic(t *testing.T) {
	a := NewRandomLie(7, []types.Value{1, 2})
	b := NewRandomLie(7, []types.Value{1, 2})
	for i := 0; i < 100; i++ {
		va, oka := a.Corrupt(0, msg(1, 1, 9))
		vb, okb := b.Corrupt(0, msg(1, 1, 9))
		if va != vb || oka != okb {
			t.Fatal("same seed should give same stream")
		}
	}
}

func TestCampLie(t *testing.T) {
	s := CampLie{Camps: map[types.NodeID]types.Value{1: 10, 2: 20}}
	if v, _ := s.Corrupt(0, msg(2, 1, 7)); v != 10 {
		t.Errorf("camp 1 = %v", v)
	}
	if v, _ := s.Corrupt(0, msg(2, 2, 7)); v != 20 {
		t.Errorf("camp 2 = %v", v)
	}
	if v, _ := s.Corrupt(0, msg(2, 3, 7)); v != 7 {
		t.Errorf("campless = %v, want honest", v)
	}
}

func TestPathLie(t *testing.T) {
	s := PathLie{ByPath: map[string]types.Value{(types.Path{0, 1}).Key(): 99}}
	m := types.Message{Round: 2, To: 2, Value: 7, Path: types.Path{0, 1}}
	if v, _ := s.Corrupt(3, m); v != 99 {
		t.Errorf("targeted path = %v", v)
	}
	m.Path = types.Path{0, 2}
	if v, _ := s.Corrupt(3, m); v != 7 {
		t.Errorf("untargeted path = %v", v)
	}
}

func TestFlipFlop(t *testing.T) {
	s := FlipFlop{Even: 2, Odd: 1}
	if v, _ := s.Corrupt(0, msg(1, 1, 7)); v != 1 {
		t.Errorf("odd round = %v", v)
	}
	if v, _ := s.Corrupt(0, msg(2, 1, 7)); v != 2 {
		t.Errorf("even round = %v", v)
	}
}

func TestNewNodeValidation(t *testing.T) {
	if _, err := NewNode(5, 2, 0, 1, 0, nil); err == nil {
		t.Error("nil strategy should error")
	}
	if _, err := NewNode(5, 2, 0, 9, 0, Silent{}); err == nil {
		t.Error("out-of-range id should error")
	}
	n, err := NewNode(5, 2, 0, 1, 0, Silent{})
	if err != nil {
		t.Fatal(err)
	}
	if n.ID() != 1 {
		t.Errorf("ID = %d", n.ID())
	}
	if n.Decide() != types.Default {
		t.Error("faulty node should report V_d")
	}
}

func TestWrapValidation(t *testing.T) {
	err := Wrap(nil, 5, 2, 0, 0, map[types.NodeID]Strategy{7: Silent{}})
	if err == nil {
		t.Error("out-of-range faulty id should error")
	}
}

func TestBatteryShape(t *testing.T) {
	ctx := Context{
		N: 5, Sender: 0, SenderValue: 1, Alt: 2,
		Honest: []types.NodeID{1, 2},
	}
	faulty := []types.NodeID{3, 4}
	scenarios := Battery()
	if len(scenarios) < 10 {
		t.Fatalf("battery too small: %d", len(scenarios))
	}
	seen := make(map[string]bool)
	for _, sc := range scenarios {
		if sc.Name == "" || sc.Build == nil {
			t.Fatalf("malformed scenario %+v", sc)
		}
		if seen[sc.Name] {
			t.Fatalf("duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
		strategies := sc.Build(faulty, 1, ctx)
		if len(strategies) != len(faulty) {
			t.Errorf("%s: armed %d of %d faulty nodes", sc.Name, len(strategies), len(faulty))
		}
		for _, id := range faulty {
			if strategies[id] == nil {
				t.Errorf("%s: node %d unarmed", sc.Name, int(id))
			}
		}
	}
}

func TestEnumerateAssignments(t *testing.T) {
	targets := []types.NodeID{1, 2}
	domain := []types.Value{10, 20, 30}
	var count int
	seen := make(map[[2]types.Value]bool)
	EnumerateAssignments(targets, domain, func(a map[types.NodeID]types.Value) bool {
		count++
		key := [2]types.Value{a[1], a[2]}
		if seen[key] {
			t.Errorf("duplicate assignment %v", key)
		}
		seen[key] = true
		return true
	})
	if count != 9 {
		t.Errorf("count = %d, want 9", count)
	}
}

func TestEnumerateAssignmentsEdge(t *testing.T) {
	var count int
	EnumerateAssignments(nil, []types.Value{1}, func(map[types.NodeID]types.Value) bool {
		count++
		return true
	})
	if count != 1 {
		t.Errorf("empty targets: count = %d, want 1 (the empty assignment)", count)
	}
	EnumerateAssignments([]types.NodeID{1}, nil, func(map[types.NodeID]types.Value) bool {
		t.Error("empty domain should enumerate nothing")
		return true
	})
	// Early stop.
	count = 0
	EnumerateAssignments([]types.NodeID{1, 2}, []types.Value{1, 2}, func(map[types.NodeID]types.Value) bool {
		count++
		return false
	})
	if count != 1 {
		t.Errorf("early stop count = %d", count)
	}
}
