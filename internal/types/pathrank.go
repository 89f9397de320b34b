package types

import (
	"fmt"
	"math/bits"
)

// PathRanker maps the valid relay paths of one EIG universe — a fixed
// sender followed by 0..depth-1 distinct non-sender relayers — to dense
// contiguous integers, and back. It is the indexing core of the flat
// (hash-free) EIG storage engine: because the universe is exactly the set
// of k-permutations of the n−1 non-sender nodes, a perfect ranking exists
// and every Set/Get in the tree becomes a pair of array operations.
//
// Paths of length ℓ occupy indices [Offset(ℓ), Offset(ℓ)+Count(ℓ)) of one
// flat space, ordered lexicographically by node ID within a level, so
// Count(ℓ) = P(n−1, ℓ−1) (the falling factorial). Ranking is mixed-radix
// lexicographic: writing the relayers of a length-ℓ path as compact
// indices c_0..c_{k−1} (k = ℓ−1, sender excluded from the alphabet), the
// level-local rank is
//
//	rank = Σ_i s_i · P(m−1−i, k−1−i)     m = n−1
//
// where s_i is the number of still-unused alphabet values below c_i. The
// radix weights are precomputed at construction, so ranking a path is a
// single pass over its elements.
//
// A useful consequence of lexicographic ranking: the children σ·j of a
// length-ℓ path with level rank r occupy the contiguous level-(ℓ+1) rank
// block [r·(n−ℓ), (r+1)·(n−ℓ)), in ascending node-ID order of j. The flat
// tree's bottom-up resolution sweep is built on exactly this property.
type PathRanker struct {
	n      int
	depth  int
	sender NodeID
	// fall[k][i] = P(m−1−i, k−1−i): the number of ways to fill the suffix
	// positions i+1..k−1 of a k-relayer path from the remaining alphabet.
	// fall[k][k−1] = 1; fall has entries for k = 1..depth−1.
	fall [][]int
	// offset[ℓ] is the flat index of the first length-ℓ path; the extra
	// entry offset[depth+1] is the total universe size. count[ℓ] =
	// offset[ℓ+1] − offset[ℓ] is kept separately for O(1) reads.
	offset []int
	count  []int
}

// maxRankerNodes caps the alphabet so unranking can track used values in a
// fixed four-word bitmask (and so flat storage stays in byte-sized ID
// territory). eig.New refuses larger systems.
const maxRankerNodes = 255

// maxRankerEntries caps the universe size so index arithmetic can never
// overflow and a dense allocation stays sane. The EIG protocols are
// exponential in depth, so any universe near this bound is unrunnable
// anyway; the cap makes the refusal explicit.
const maxRankerEntries = 1 << 40

// NewPathRanker builds the ranking tables for a system of n nodes, paths
// up to the given depth, rooted at sender. It fails when the parameters
// are out of range or the universe exceeds maxRankerEntries.
func NewPathRanker(n, depth int, sender NodeID) (*PathRanker, error) {
	if n < 2 || n > maxRankerNodes {
		return nil, fmt.Errorf("types: ranker needs 2 ≤ n ≤ %d, got %d", maxRankerNodes, n)
	}
	if depth < 1 || depth > n-1 {
		return nil, fmt.Errorf("types: ranker depth %d out of range [1, %d]", depth, n-1)
	}
	if sender < 0 || int(sender) >= n {
		return nil, fmt.Errorf("types: ranker sender %d out of range", int(sender))
	}
	m := n - 1
	r := &PathRanker{
		n:      n,
		depth:  depth,
		sender: sender,
		fall:   make([][]int, depth),
		offset: make([]int, depth+2),
		count:  make([]int, depth+1),
	}
	for k := 1; k < depth; k++ {
		r.fall[k] = make([]int, k)
		r.fall[k][k-1] = 1
		for i := k - 2; i >= 0; i-- {
			r.fall[k][i] = r.fall[k][i+1] * (m - 1 - i)
		}
	}
	levelCount := 1 // Count(1): the bare sender
	for l := 1; l <= depth; l++ {
		r.count[l] = levelCount
		r.offset[l+1] = r.offset[l] + levelCount
		if r.offset[l+1] > maxRankerEntries {
			return nil, fmt.Errorf("types: ranker universe for n=%d depth=%d exceeds %d entries",
				n, depth, maxRankerEntries)
		}
		levelCount *= m - l + 1 // Count(l+1) = Count(l)·(m−ℓ+1)
	}
	return r, nil
}

// N returns the system size.
func (r *PathRanker) N() int { return r.n }

// Depth returns the maximum path length.
func (r *PathRanker) Depth() int { return r.depth }

// Sender returns the fixed path root.
func (r *PathRanker) Sender() NodeID { return r.sender }

// Count returns the number of valid paths of exactly the given length, or
// 0 outside [1, depth].
func (r *PathRanker) Count(length int) int {
	if length < 1 || length > r.depth {
		return 0
	}
	return r.count[length]
}

// Offset returns the flat index of the first path of the given length.
func (r *PathRanker) Offset(length int) int {
	if length < 1 || length > r.depth {
		return 0
	}
	return r.offset[length]
}

// Total returns the universe size: the number of valid paths of all
// lengths, and therefore the length of a dense value array.
func (r *PathRanker) Total() int { return r.offset[r.depth+1] }

// Children returns the number of one-node extensions every length-ℓ path
// has: n−ℓ. The children of the path with level rank r are exactly the
// level-(ℓ+1) ranks r·(n−ℓ)+s for s in [0, n−ℓ), ascending in the ID of
// the appended node.
func (r *PathRanker) Children(length int) int {
	if length < 1 || length >= r.depth {
		return 0
	}
	return r.n - length
}

// Index ranks p into the flat universe. ok is false when p is not a valid
// path of this universe (wrong root, out-of-range or repeated node, bad
// length); the validation is a by-product of ranking and costs nothing
// extra, so callers need no separate ValidPath check.
func (r *PathRanker) Index(p Path) (idx int, ok bool) {
	l := len(p)
	if l < 1 || l > r.depth || p[0] != r.sender {
		return 0, false
	}
	k := l - 1
	rank := 0
	for i := 1; i <= k; i++ {
		id := p[i]
		if id < 0 || int(id) >= r.n || id == r.sender {
			return 0, false
		}
		// Compact index: the alphabet is the non-sender nodes in ID order.
		s := int(id)
		if id > r.sender {
			s--
		}
		// s_i = c_i minus the number of already-used smaller values; the
		// compact mapping is monotone, so raw-ID comparisons suffice.
		for j := 1; j < i; j++ {
			if p[j] == id {
				return 0, false
			}
			if p[j] < id {
				s--
			}
		}
		rank += s * r.fall[k][i-1]
	}
	return r.offset[l] + rank, true
}

// Unrank reconstructs the path of the given length and level-local rank
// (in [0, Count(length))), appending into buf[:0] to avoid allocation. It
// is the inverse of Index: Index(Unrank(ℓ, rank)) == Offset(ℓ)+rank.
func (r *PathRanker) Unrank(length, rank int, buf Path) (Path, bool) {
	if length < 1 || length > r.depth || rank < 0 || rank >= r.count[length] {
		return nil, false
	}
	buf = append(buf[:0], r.sender)
	var used [4]uint64 // compact alphabet bitmap, m ≤ 254
	k := length - 1
	for i := 0; i < k; i++ {
		f := r.fall[k][i]
		q := rank / f
		rank %= f
		// The value at position i is the (q+1)-th smallest unused one.
		c := -1
		for w := 0; w < len(used) && c < 0; w++ {
			free := ^used[w]
			for free != 0 {
				b := bits.TrailingZeros64(free)
				if q == 0 {
					c = w*64 + b
					break
				}
				q--
				free &^= 1 << uint(b)
			}
		}
		used[c>>6] |= 1 << uint(c&63)
		id := NodeID(c)
		if id >= r.sender {
			id++
		}
		buf = append(buf, id)
	}
	return buf, true
}
