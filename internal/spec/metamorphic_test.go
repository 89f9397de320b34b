package spec

import (
	"math/rand"
	"testing"
	"testing/quick"

	"degradable/internal/types"
)

// Metamorphic property: relabeling node IDs by any permutation that fixes
// the sender preserves the verdict (OK, Condition, Graceful) — the spec
// depends only on the multiset of fault-free decisions and roles.
func TestCheckPermutationInvariantQuick(t *testing.T) {
	f := func(seed int64, faultyRaw uint8, decRaw []uint8) bool {
		const n = 6
		rng := rand.New(rand.NewSource(seed))
		e := Execution{M: 1, U: 3, Sender: 0, SenderValue: 5}
		for i := 1; i < n; i++ {
			if faultyRaw&(1<<uint(i)) != 0 {
				e.Faulty = e.Faulty.Add(types.NodeID(i))
			}
		}
		if rng.Intn(4) == 0 {
			e.Faulty = e.Faulty.Add(0) // sometimes the sender is faulty
		}
		e.Decisions = make(map[types.NodeID]types.Value)
		for i := 1; i < n; i++ {
			var v types.Value
			if len(decRaw) > 0 {
				b := decRaw[i%len(decRaw)]
				if b%4 == 3 {
					v = types.Default
				} else {
					v = types.Value(b % 3)
				}
			}
			e.Decisions[types.NodeID(i)] = v
		}
		base := Check(e)

		// Permute receiver IDs 1..n-1.
		perm := rng.Perm(n - 1)
		mapped := Execution{
			M: e.M, U: e.U, Sender: 0, SenderValue: e.SenderValue,
			Decisions: make(map[types.NodeID]types.Value),
		}
		relabel := func(id types.NodeID) types.NodeID {
			if id == 0 {
				return 0
			}
			return types.NodeID(perm[int(id)-1] + 1)
		}
		for _, id := range e.Faulty.IDs() {
			mapped.Faulty = mapped.Faulty.Add(relabel(id))
		}
		for id, d := range e.Decisions {
			mapped.Decisions[relabel(id)] = d
		}
		got := Check(mapped)
		return got.OK == base.OK && got.Condition == base.Condition &&
			got.Graceful == base.Graceful && got.Regime == base.Regime &&
			got.Margin == base.Margin && marginMatchesFloor(base)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Metamorphic property: renaming the application values by any injective
// mapping that fixes V_d preserves OK/Graceful.
func TestCheckValueRenamingQuick(t *testing.T) {
	f := func(faultyRaw uint8, decRaw []uint8, offset int16) bool {
		if offset == 0 {
			offset = 1
		}
		const n = 5
		e := Execution{M: 1, U: 2, Sender: 0, SenderValue: 100}
		for i := 1; i < n; i++ {
			if faultyRaw&(1<<uint(i)) != 0 && e.Faulty.Len() < 2 {
				e.Faulty = e.Faulty.Add(types.NodeID(i))
			}
		}
		e.Decisions = make(map[types.NodeID]types.Value)
		for i := 1; i < n; i++ {
			var v types.Value = types.Default
			if len(decRaw) > 0 && decRaw[i%len(decRaw)]%3 != 0 {
				v = types.Value(100 + int64(decRaw[i%len(decRaw)]%3))
			}
			e.Decisions[types.NodeID(i)] = v
		}
		base := Check(e)

		rename := func(v types.Value) types.Value {
			if v == types.Default {
				return v
			}
			return v*1000 + types.Value(offset)
		}
		mapped := Execution{
			M: e.M, U: e.U, Sender: 0,
			SenderValue: rename(e.SenderValue),
			Faulty:      e.Faulty,
			Decisions:   make(map[types.NodeID]types.Value),
		}
		for id, d := range e.Decisions {
			mapped.Decisions[id] = rename(d)
		}
		got := Check(mapped)
		return got.OK == base.OK && got.Graceful == base.Graceful &&
			got.Margin == base.Margin && marginMatchesFloor(base)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// marginMatchesFloor: within u, Margin ≥ 0 ⟺ Graceful.
func marginMatchesFloor(v Verdict) bool {
	return v.Regime == RegimeBeyond || (v.Margin >= 0) == v.Graceful
}
