package vote

import (
	"testing"

	"degradable/internal/types"
)

// voteOracle is VOTE(threshold, len(vals)) by its definition in §4: tally
// every value, and return the one value reaching the threshold, or V_d
// when none or more than one does. A threshold below 1 counts as 1.
func voteOracle(threshold int, vals []types.Value) types.Value {
	if threshold < 1 {
		threshold = 1
	}
	winner, winners := types.Default, 0
	for v, c := range tallyForTest(vals) {
		if c >= threshold {
			winner, winners = v, winners+1
		}
	}
	if winners != 1 {
		return types.Default
	}
	return winner
}

// FuzzVote holds Vote to the counting oracle over arbitrary thresholds —
// negative, at most half the vector (where ties are possible), above half
// (the one-pass path) and past its length — and vectors on both sides of
// the in-place and tally-map lengths. Each byte is one value from a small
// alphabet that includes V_d, so ties and near-ties are common; repeat
// stretches the vector past smallVote.
func FuzzVote(f *testing.F) {
	f.Add([]byte{1, 2, 2, 3}, int8(2), uint8(0))
	f.Add([]byte{1, 2, 0, 3}, int8(2), uint8(0))
	f.Add([]byte{1, 2, 2, 1}, int8(2), uint8(0))
	f.Add([]byte{}, int8(1), uint8(0))
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7}, int8(8), uint8(0))
	f.Add([]byte{3, 3, 1, 3, 2, 3, 3}, int8(4), uint8(12))
	f.Add([]byte{1, 2}, int8(-3), uint8(40))
	f.Fuzz(func(t *testing.T, raw []byte, threshold int8, repeat uint8) {
		vals := make([]types.Value, 0, len(raw)*(1+int(repeat%40)))
		for k := 0; k <= int(repeat%40); k++ {
			for _, b := range raw {
				v := types.Value(b % 5)
				if b%7 == 0 {
					v = types.Default
				}
				vals = append(vals, v)
			}
		}
		if got, want := Vote(int(threshold), vals), voteOracle(int(threshold), vals); got != want {
			t.Fatalf("Vote(%d, %v) = %v, the count says %v", threshold, vals, got, want)
		}
	})
}

func tallyForTest(vals []types.Value) map[types.Value]int {
	m := make(map[types.Value]int)
	for _, v := range vals {
		m[v]++
	}
	return m
}

// FuzzMajority checks that Majority never elects a value without strict
// majority support.
func FuzzMajority(f *testing.F) {
	f.Add([]byte{1, 1, 2})
	f.Add([]byte{})
	f.Add([]byte{3, 3, 3, 3})
	f.Fuzz(func(t *testing.T, raw []byte) {
		vals := make([]types.Value, len(raw))
		for i, b := range raw {
			vals[i] = types.Value(b % 4)
		}
		got := Majority(vals)
		if got != types.Default && 2*Count(got, vals) <= len(vals) {
			t.Errorf("Majority(%v) = %v without strict majority", vals, got)
		}
	})
}
