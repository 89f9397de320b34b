package chaos

import (
	"encoding/json"
	"math"
	"testing"

	"degradable/internal/adversary"
	"degradable/internal/types"
)

// base returns a healthy 1/2-degradable scenario at minimum size.
func base(seed int64) Scenario {
	return Scenario{N: 5, M: 1, U: 2, SenderValue: 1001, Seed: seed}
}

func TestDropEverythingStillGraceful(t *testing.T) {
	sc := base(1)
	sc.Injectors = Compose(Injector{Kind: Drop, P: 1})
	out, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Delivered != 0 {
		t.Errorf("Drop P=1 delivered %d messages", out.Delivered)
	}
	if out.Counters.Dropped != out.Messages {
		t.Errorf("dropped %d of %d sent", out.Counters.Dropped, out.Messages)
	}
	// All receivers decide V_d: the classic condition D.1 is gone, but the
	// graceful floor holds, which is exactly what LevelGraceful expects.
	if got := sc.ResolveLevel(); got != LevelGraceful {
		t.Fatalf("resolved level = %v, want graceful", got)
	}
	if !out.ExpectationMet {
		t.Errorf("expectation missed: %s", out.ExpectReason)
	}
	if out.ClassValue() != GracefulOnly {
		t.Errorf("class = %s, want GracefulOnly", out.Class)
	}
}

func TestDelayToAbsenceCountsSeparately(t *testing.T) {
	sc := base(2)
	sc.Injectors = Compose(Injector{Kind: DelayToAbsence, P: 1})
	out, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Counters.Delayed != out.Messages || out.Counters.Dropped != 0 {
		t.Errorf("counters = %+v, want all %d under Delayed", out.Counters, out.Messages)
	}
	if out.Delivered != 0 {
		t.Errorf("delayed-to-absence message was delivered")
	}
}

func TestDuplicateIsIdempotentForDecisions(t *testing.T) {
	clean := base(3)
	cleanOut, err := clean.Run()
	if err != nil {
		t.Fatal(err)
	}
	dup := base(3)
	dup.Injectors = Compose(Injector{Kind: Duplicate, P: 1})
	dupOut, err := dup.Run()
	if err != nil {
		t.Fatal(err)
	}
	if dupOut.Counters.Duplicated != dupOut.Messages {
		t.Errorf("duplicated %d of %d", dupOut.Counters.Duplicated, dupOut.Messages)
	}
	if dupOut.Delivered != 2*dupOut.Messages {
		t.Errorf("Delivered = %d, want %d (every message twice)", dupOut.Delivered, 2*dupOut.Messages)
	}
	// First-write-wins ingestion makes the duplicate a no-op for decisions.
	if dupOut.Condition != cleanOut.Condition || dupOut.OK != cleanOut.OK {
		t.Errorf("duplicates changed the verdict: %+v vs %+v", dupOut, cleanOut)
	}
	if !dupOut.ExpectationMet {
		t.Errorf("duplicate-only scenario missed full spec: %s", dupOut.ExpectReason)
	}
}

func TestCorruptValueConfinedToFaultyTraffic(t *testing.T) {
	// No faults armed: nothing is eligible even at P=1 scope-anywhere.
	sc := base(4)
	sc.Injectors = Compose(Injector{Kind: CorruptValue, P: 1, Scope: ScopeAnywhere})
	out, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Counters.Corrupted != 0 {
		t.Errorf("corrupted %d fault-free messages", out.Counters.Corrupted)
	}
	if !out.OK || out.Condition != "D.1" {
		t.Errorf("clean run verdict %s ok=%v", out.Condition, out.OK)
	}

	// With a faulty node, its traffic is corrupted and the spec still holds:
	// a Byzantine node garbling its own messages is just another adversary.
	sc = base(5)
	sc.Faults = []adversary.FaultSpec{{Node: 3, Kind: 3 /* lie */, Value: 2002}}
	sc.Injectors = Compose(Injector{Kind: CorruptValue, P: 1, Domain: []types.Value{3003}})
	out, err = sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Counters.Corrupted == 0 {
		t.Error("no corruption of the faulty node's traffic")
	}
	if !out.ExpectationMet {
		t.Errorf("corrupting faulty traffic broke the spec: %s — %s", out.Reason, out.ExpectReason)
	}
}

func TestPartitionSeversCrossGroupTraffic(t *testing.T) {
	sc := base(6)
	sc.Injectors = Compose(Injector{
		Kind:   Partition,
		Groups: [][]types.NodeID{{0}, {1, 2, 3, 4}},
	})
	out, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Counters.Severed == 0 {
		t.Error("partition severed nothing")
	}
	// The sender is cut off for the whole run: every receiver decides V_d,
	// graceful degradation holds (4 ≥ m+1), D.1 does not.
	if out.OK {
		t.Error("D.1 held through a full sender partition")
	}
	if out.ClassValue() != GracefulOnly || !out.ExpectationMet {
		t.Errorf("class=%s met=%v (%s)", out.Class, out.ExpectationMet, out.ExpectReason)
	}
}

func TestPartitionRoundWindow(t *testing.T) {
	// Severing only round 2 leaves round 1 (the sender's distribution)
	// intact; with no node faults the echo still carries enough support.
	sc := base(7)
	sc.Injectors = Compose(Injector{
		Kind:   Partition,
		Groups: [][]types.NodeID{{1, 2}, {3, 4}},
		// FromRound/ToRound = [2, 2]: round 1 crosses freely.
		FromRound: 2, ToRound: 2,
	})
	out, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Counters.Severed == 0 {
		t.Error("round-2 partition severed nothing")
	}
	sent := out.Messages
	if out.Delivered+out.Counters.Severed != sent {
		t.Errorf("accounting: delivered %d + severed %d != sent %d", out.Delivered, out.Counters.Severed, sent)
	}
}

func TestComposeLayersAndCounters(t *testing.T) {
	sc := base(8)
	sc.Faults = []adversary.FaultSpec{{Node: 4, Kind: 1 /* silent */}}
	sc.Injectors = Compose(
		Injector{Kind: Drop, P: 0.2},
		Injector{Kind: Duplicate, P: 0.2},
		Injector{Kind: DelayToAbsence, P: 0.1, Scope: ScopeFaultyOnly},
	)
	out, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Counters.Inspected != out.Messages {
		t.Errorf("inspected %d of %d sent", out.Counters.Inspected, out.Messages)
	}
	if out.Counters.Injections() == 0 {
		t.Error("composed stack injected nothing at these probabilities")
	}
}

func TestScenarioReplaysByteIdentically(t *testing.T) {
	sc := base(9)
	sc.Faults = []adversary.FaultSpec{{Node: 2, Kind: 5 /* random */, Value: 2002, Seed: 77}}
	sc.Injectors = Compose(Injector{Kind: Drop, P: 0.3}, Injector{Kind: Duplicate, P: 0.3})
	a, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Errorf("same scenario, different outcomes:\n%s\n%s", ja, jb)
	}
}

func TestInjectorValidation(t *testing.T) {
	cases := []Injector{
		{Kind: Drop, P: -0.1},
		{Kind: Duplicate, P: 1.5},
		{Kind: Drop, P: math.NaN()}, // would never fire: Float64() < NaN is false
		{Kind: DelayToAbsence, P: math.NaN()},
		{Kind: Duplicate, P: math.NaN()},
		{Kind: CorruptValue, P: math.NaN()},
		{Kind: Drop, P: math.Inf(1)},
		{Kind: Partition, Groups: [][]types.NodeID{{0, 1}}},         // one group
		{Kind: Partition, Groups: [][]types.NodeID{{0, 1}, {1, 2}}}, // overlap
		{Kind: InjectorKind(99), P: 0.5},                            // unknown
	}
	for i, in := range cases {
		sc := base(10)
		sc.Injectors = []Injector{in}
		if _, err := sc.Run(); err == nil {
			t.Errorf("case %d (%+v): no validation error", i, in)
		}
	}
}

func TestResolveLevel(t *testing.T) {
	relaxed := Compose(Injector{Kind: Drop, P: 0.1})
	scoped := Compose(Injector{Kind: Drop, P: 0.1, Scope: ScopeFaultyOnly})
	cases := []struct {
		name   string
		faults int
		inj    []Injector
		want   Level
	}{
		{"no faults, clean", 0, nil, LevelFull},
		{"classic, scoped drops", 1, scoped, LevelFull},
		{"classic, relaxed drops", 1, relaxed, LevelGraceful},
		{"degraded, relaxed drops", 2, relaxed, LevelFull},
		{"beyond bounds", 3, relaxed, LevelNone},
	}
	for _, c := range cases {
		sc := base(11)
		for i := 0; i < c.faults; i++ {
			sc.Faults = append(sc.Faults, adversary.FaultSpec{Node: types.NodeID(i + 1), Kind: 1})
		}
		sc.Injectors = c.inj
		if got := sc.ResolveLevel(); got != c.want {
			t.Errorf("%s: level = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestDuplicateFaultRejected(t *testing.T) {
	sc := base(12)
	sc.Faults = []adversary.FaultSpec{{Node: 3, Kind: 1}, {Node: 3, Kind: 3, Value: 2002}}
	if _, err := sc.Run(); err == nil {
		t.Error("node armed twice was accepted")
	}
}
