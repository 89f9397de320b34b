package vote

import (
	"math/rand"
	"testing"
	"testing/quick"

	"degradable/internal/types"
)

// vs builds a value slice tersely.
func vs(vals ...int64) []types.Value {
	out := make([]types.Value, len(vals))
	for i, v := range vals {
		out[i] = types.Value(v)
	}
	return out
}

func TestVotePaperExamples(t *testing.T) {
	// The three worked examples from §4 of the paper.
	tests := []struct {
		name      string
		threshold int
		vals      []types.Value
		want      types.Value
	}{
		{"VOTE(2,4) of 1,2,2,3 is 2", 2, vs(1, 2, 2, 3), 2},
		{"VOTE(2,4) of 1,2,0,3 is V_d", 2, vs(1, 2, 0, 3), types.Default},
		{"VOTE(2,4) of 1,2,2,1 is V_d (tie)", 2, vs(1, 2, 2, 1), types.Default},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Vote(tt.threshold, tt.vals); got != tt.want {
				t.Errorf("Vote(%d, %v) = %v, want %v", tt.threshold, tt.vals, got, tt.want)
			}
		})
	}
}

func TestVoteGeneral(t *testing.T) {
	tests := []struct {
		name      string
		threshold int
		vals      []types.Value
		want      types.Value
	}{
		{"empty", 1, nil, types.Default},
		{"single meets", 1, vs(7), 7},
		{"single misses", 2, vs(7), types.Default},
		{"default can win", 2, []types.Value{types.Default, types.Default, 3}, types.Default},
		{"exact threshold", 3, vs(5, 5, 5, 1), 5},
		{"below threshold", 4, vs(5, 5, 5, 1), types.Default},
		{"three-way tie", 1, vs(1, 2, 3), types.Default},
		{"unanimity", 4, vs(9, 9, 9, 9), 9},
		{"zero threshold normalized", 0, vs(4, 4), 4},
		{"negative threshold normalized", -3, vs(4, 4), 4},
		{"default ties with value", 2, []types.Value{types.Default, types.Default, 3, 3}, types.Default},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Vote(tt.threshold, tt.vals); got != tt.want {
				t.Errorf("Vote(%d, %v) = %v, want %v", tt.threshold, tt.vals, got, tt.want)
			}
		})
	}
}

func TestMajority(t *testing.T) {
	tests := []struct {
		name string
		vals []types.Value
		want types.Value
	}{
		{"empty", nil, types.Default},
		{"simple majority", vs(1, 1, 2), 1},
		{"no majority on even split", vs(1, 1, 2, 2), types.Default},
		{"plurality is not majority", vs(1, 1, 2, 3, 4), types.Default},
		{"all same", vs(6, 6, 6), 6},
		{"single", vs(3), 3},
		{"default majority", []types.Value{types.Default, types.Default, 1}, types.Default},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Majority(tt.vals); got != tt.want {
				t.Errorf("Majority(%v) = %v, want %v", tt.vals, got, tt.want)
			}
		})
	}
}

func TestKOfN(t *testing.T) {
	// C.1: (m+u)-out-of-(2m+u) vote; m=1, u=2 → 3-out-of-4.
	got, err := KOfN(3, vs(8, 8, 8, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got != 8 {
		t.Errorf("KOfN(3) = %v, want 8", got)
	}
	got, err = KOfN(3, vs(8, 8, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got != types.Default {
		t.Errorf("KOfN(3) under support = %v, want V_d", got)
	}
	if _, err := KOfN(0, vs(1)); err == nil {
		t.Error("KOfN(0) should error")
	}
	if _, err := KOfN(2, vs(1)); err == nil {
		t.Error("KOfN(k>n) should error")
	}
}

func TestUnanimous(t *testing.T) {
	if got := Unanimous(vs(4, 4, 4)); got != 4 {
		t.Errorf("Unanimous = %v", got)
	}
	if got := Unanimous(vs(4, 4, 5)); got != types.Default {
		t.Errorf("Unanimous on disagreement = %v", got)
	}
}

func TestCount(t *testing.T) {
	vals := vs(1, 2, 2, 3, 3, 3)
	if got := Count(3, vals); got != 3 {
		t.Errorf("Count(3) = %d", got)
	}
	if got := Count(9, vals); got != 0 {
		t.Errorf("Count(9) = %d", got)
	}
}

// Property: the result of Vote is either Default or a value that occurs at
// least threshold times, and no *other* value occurs threshold times.
func TestVoteSoundnessQuick(t *testing.T) {
	f := func(raw []uint8, thRaw uint8) bool {
		vals := make([]types.Value, len(raw))
		for i, r := range raw {
			vals[i] = types.Value(r % 4) // small domain to force collisions
		}
		th := int(thRaw%6) + 1
		got := Vote(th, vals)
		if got == types.Default {
			return true // always permissible per definition when no unique winner
		}
		if Count(got, vals) < th {
			return false
		}
		for v := types.Value(0); v < 4; v++ {
			if v != got && Count(v, vals) >= th {
				return false // tie should have produced Default
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Vote is insensitive to permutation of its inputs.
func TestVotePermutationInvariantQuick(t *testing.T) {
	f := func(raw []uint8, thRaw uint8, seed int64) bool {
		vals := make([]types.Value, len(raw))
		for i, r := range raw {
			vals[i] = types.Value(r % 3)
		}
		th := int(thRaw%5) + 1
		want := Vote(th, vals)
		rng := rand.New(rand.NewSource(seed))
		perm := append([]types.Value(nil), vals...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		return Vote(th, perm) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Majority(vals) != Default implies that value appears more than
// len/2 times; and majority is unique.
func TestMajoritySoundnessQuick(t *testing.T) {
	f := func(raw []uint8) bool {
		vals := make([]types.Value, len(raw))
		for i, r := range raw {
			vals[i] = types.Value(r % 3)
		}
		got := Majority(vals)
		if got == types.Default {
			// Either no strict majority exists, or Default itself is the
			// majority — both mean returning Default is right. Verify no
			// non-default strict majority was missed.
			for v := types.Value(0); v < 3; v++ {
				if 2*Count(v, vals) > len(vals) {
					return false
				}
			}
			return true
		}
		return 2*Count(got, vals) > len(vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: when a strict majority exists, Vote with any threshold at or
// below the majority count finds it or reports a tie — it never reports a
// different value.
func TestVoteNeverElectsMinorityQuick(t *testing.T) {
	f := func(raw []uint8, thRaw uint8) bool {
		vals := make([]types.Value, len(raw))
		for i, r := range raw {
			vals[i] = types.Value(r % 2)
		}
		maj := Majority(vals)
		if maj == types.Default {
			return true
		}
		th := int(thRaw%8) + 1
		got := Vote(th, vals)
		return got == maj || got == types.Default
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
