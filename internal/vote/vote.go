// Package vote implements the voting primitives of the paper.
//
// Section 4 defines VOTE(α, β) over β values w_1..w_β: the result is v if at
// least α of the values equal v, and the default value V_d otherwise. Ties —
// two distinct values both reaching the threshold — also yield V_d. Section 3
// additionally uses a k-out-of-n vote at the external entity (condition C.1)
// and classic majority voting for the OM baseline.
package vote

import (
	"fmt"

	"degradable/internal/types"
)

// Vote computes VOTE(threshold, len(vals)) as defined in §4 of the paper:
// it returns v when v is the unique value occurring at least threshold times
// among vals; on insufficient support, or when two or more distinct values
// reach the threshold (a tie), it returns types.Default.
//
// The default value itself may win the vote, in which case the result is
// simply types.Default.
func Vote(threshold int, vals []types.Value) types.Value {
	if threshold <= 0 {
		// VOTE(α, β) with α ≤ 0 is degenerate: every value trivially
		// reaches the threshold, which is a tie unless all values are
		// identical.
		threshold = 1
	}
	if 2*threshold > len(vals) {
		return voteMajority(threshold, vals)
	}
	if len(vals) <= smallVote {
		return voteSmall(threshold, vals)
	}
	counts := tally(vals)
	winner := types.Default
	found := false
	for v, c := range counts {
		if c < threshold {
			continue
		}
		if found {
			return types.Default // tie
		}
		winner, found = v, true
	}
	if !found {
		return types.Default
	}
	return winner
}

// voteMajority is Vote when the threshold exceeds half the vector, which
// BYZ(m,m)'s VOTE(n_σ−1−m, n_σ−1) always does (N ≥ 2m+u+1 and u ≥ m put
// n_σ−1 above 2m). Then at most one value can reach the threshold, so
// there is no tie, and a value that reaches it holds a strict majority:
// the Boyer–Moore pairing pass leaves it as the candidate, and one count
// decides.
func voteMajority(threshold int, vals []types.Value) types.Value {
	cand, lead := types.Default, 0
	for _, v := range vals {
		switch {
		case lead == 0:
			cand, lead = v, 1
		case v == cand:
			lead++
		default:
			lead--
		}
	}
	if Count(cand, vals) >= threshold {
		return cand
	}
	return types.Default
}

// smallVote is the vector length up to which Vote counts in place instead
// of building a tally map. Protocol vote vectors have at most n−1 entries,
// so this covers every run the serving hot path sees without allocating.
const smallVote = 64

// voteSmall is Vote on short vectors at thresholds of at most half their
// length, where two values may tie: for each first occurrence, count its
// repeats directly. Quadratic, but allocation-free and faster than a map
// for the vector sizes the protocols produce.
func voteSmall(threshold int, vals []types.Value) types.Value {
	winner := types.Default
	found := false
	for i, v := range vals {
		prior := false
		for j := 0; j < i; j++ {
			if vals[j] == v {
				prior = true
				break
			}
		}
		if prior {
			continue // already counted at its first occurrence
		}
		c := 1
		for j := i + 1; j < len(vals); j++ {
			if vals[j] == v {
				c++
			}
		}
		if c >= threshold {
			if found {
				return types.Default // tie
			}
			winner, found = v, true
		}
	}
	if !found {
		return types.Default
	}
	return winner
}

// Majority returns the strict-majority value of vals (> len/2 occurrences),
// or types.Default when none exists. This is the "majority value among the
// values v_1...v_{n-1} if it exists, otherwise RETREAT" rule of Lamport's
// OM(m) algorithm.
func Majority(vals []types.Value) types.Value {
	return voteMajority(len(vals)/2+1, vals)
}

// KOfN implements the external entity's (k)-out-of-(n) vote (condition C.1
// instantiates it as (m+u)-out-of-(2m+u)): the result is v if at least k of
// the n values equal v, and V_d otherwise. A tie (possible only when k ≤ n/2)
// yields V_d, consistent with Vote.
func KOfN(k int, vals []types.Value) (types.Value, error) {
	if k < 1 || k > len(vals) {
		return types.Default, fmt.Errorf("vote: k=%d out of range for %d values", k, len(vals))
	}
	return Vote(k, vals), nil
}

// Unanimous returns v if every value equals v, else types.Default. It is
// VOTE(β, β), the resolution rule of the m = 0 degradable algorithm.
func Unanimous(vals []types.Value) types.Value {
	if v, ok := UnanimousSlots(vals); ok {
		return v
	}
	return types.Default
}

// UnanimousSlots reports whether vals is non-empty and holds a single
// distinct value, and which. It is the allocation-free single-pass primitive
// behind Unanimous and the optimistic fast path: the serving runtime calls
// it directly on raw value-slot arrays (a flat EIG value segment, a round-1
// receipt vector with absences already mapped to types.Default) without
// building an intermediate copy or a tally. ok distinguishes an empty input
// (false) from a genuine unanimous types.Default (true).
func UnanimousSlots(vals []types.Value) (types.Value, bool) {
	if len(vals) == 0 {
		return types.Default, false
	}
	v := vals[0]
	for _, w := range vals[1:] {
		if w != v {
			return types.Default, false
		}
	}
	return v, true
}

// Count returns the number of occurrences of v in vals.
func Count(v types.Value, vals []types.Value) int {
	var c int
	for _, w := range vals {
		if w == v {
			c++
		}
	}
	return c
}

func tally(vals []types.Value) map[types.Value]int {
	counts := make(map[types.Value]int, len(vals))
	for _, v := range vals {
		counts[v]++
	}
	return counts
}
