package types

import (
	"testing"
)

func mustRanker(t *testing.T, n, depth int, sender NodeID) *PathRanker {
	t.Helper()
	r, err := NewPathRanker(n, depth, sender)
	if err != nil {
		t.Fatalf("NewPathRanker(%d, %d, %d): %v", n, depth, int(sender), err)
	}
	return r
}

func TestNewPathRankerValidation(t *testing.T) {
	for _, tt := range []struct {
		name     string
		n, depth int
		sender   NodeID
		wantErr  bool
	}{
		{"ok minimal", 2, 1, 0, false},
		{"ok typical", 7, 2, 0, false},
		{"too few nodes", 1, 1, 0, true},
		{"zero depth", 4, 0, 0, true},
		{"depth too large", 4, 4, 0, true},
		{"sender out of range", 4, 2, 4, true},
		{"sender negative", 4, 2, -1, true},
		{"n past byte range", 256, 2, 0, true},
	} {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewPathRanker(tt.n, tt.depth, tt.sender)
			if (err != nil) != tt.wantErr {
				t.Errorf("err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestPathRankerCounts(t *testing.T) {
	r := mustRanker(t, 7, 3, 0)
	// P(6, 0) = 1, P(6, 1) = 6, P(6, 2) = 30.
	for l, want := range map[int]int{1: 1, 2: 6, 3: 30, 0: 0, 4: 0} {
		if got := r.Count(l); got != want {
			t.Errorf("Count(%d) = %d, want %d", l, got, want)
		}
	}
	if got := r.Total(); got != 37 {
		t.Errorf("Total = %d, want 37", got)
	}
	if got := r.Offset(3); got != 7 {
		t.Errorf("Offset(3) = %d, want 7", got)
	}
	if got := r.Children(2); got != 5 {
		t.Errorf("Children(2) = %d, want 5 (n−ℓ)", got)
	}
}

// TestPathRankerBijective checks, for every small universe, that Index is
// a bijection onto [0, Total): every rank is hit exactly once, Unrank
// inverts Index, ranks are assigned in lexicographic path order, and the
// child-block contiguity eig.Tree's resolve relies on holds.
func TestPathRankerBijective(t *testing.T) {
	for n := 2; n <= 6; n++ {
		for depth := 1; depth <= n-1; depth++ {
			for _, sender := range []NodeID{0, NodeID(n / 2), NodeID(n - 1)} {
				r := mustRanker(t, n, depth, sender)
				seen := make([]bool, r.Total())
				var walk func(p Path)
				walk = func(p Path) {
					idx, ok := r.Index(p)
					if !ok {
						t.Fatalf("n=%d d=%d s=%d: valid path %v not ranked", n, depth, int(sender), p)
					}
					// Lexicographic enumeration within a level must yield
					// consecutive ranks (the walk below appends IDs in
					// ascending order).
					if idx < 0 || idx >= r.Total() || seen[idx] {
						t.Fatalf("index %d for %v out of range or duplicated", idx, p)
					}
					seen[idx] = true
					// Unrank must invert.
					got, ok := r.Unrank(len(p), idx-r.Offset(len(p)), nil)
					if !ok || got.Compare(p) != 0 {
						t.Fatalf("Unrank(%d, %d) = %v (%v), want %v", len(p), idx-r.Offset(len(p)), got, ok, p)
					}
					// Child contiguity: the s-th child (ascending ID) of the
					// path with level rank q sits at level rank q·(n−ℓ)+s.
					if len(p) < depth {
						q := idx - r.Offset(len(p))
						s := 0
						for j := 0; j < n; j++ {
							id := NodeID(j)
							if p.Contains(id) {
								continue
							}
							child := append(p, id)
							cidx, ok := r.Index(child)
							if !ok {
								t.Fatalf("child %v not ranked", child)
							}
							wantRank := q*r.Children(len(p)) + s
							if cidx-r.Offset(len(p)+1) != wantRank {
								t.Fatalf("child %v: rank %d, want %d", child, cidx-r.Offset(len(p)+1), wantRank)
							}
							walk(child)
							s++
						}
					}
				}
				walk(Path{sender})
				for idx, ok := range seen {
					if !ok {
						t.Fatalf("n=%d d=%d s=%d: rank %d never produced", n, depth, int(sender), idx)
					}
				}
			}
		}
	}
}

func TestPathRankerRejects(t *testing.T) {
	r := mustRanker(t, 5, 3, 1)
	for _, bad := range []Path{
		{},            // empty
		{0},           // wrong root
		{1, 1},        // sender repeated
		{1, 2, 2},     // relayer repeated
		{1, 5},        // out of range
		{1, -1},       // negative
		{1, 0, 2, 3},  // too long
		{1, 2, 0, 22}, // out of range at the tail
	} {
		if _, ok := r.Index(bad); ok {
			t.Errorf("Index(%v) accepted an invalid path", bad)
		}
	}
	if _, ok := r.Unrank(2, 4, nil); ok {
		t.Error("Unrank past Count should fail")
	}
	if _, ok := r.Unrank(4, 0, nil); ok {
		t.Error("Unrank past depth should fail")
	}
}

// FuzzPathRankRoundTrip fuzzes rank/unrank inversion from both directions:
// any in-range (length, rank) pair must unrank to a path that ranks back
// to itself, and any byte-soup path must either be rejected or round-trip.
func FuzzPathRankRoundTrip(f *testing.F) {
	f.Add(7, 3, uint8(0), 2, 5, []byte{1, 2})
	f.Add(5, 4, uint8(4), 4, 0, []byte{0, 1, 2})
	f.Fuzz(func(t *testing.T, n, depth int, senderRaw uint8, length, rank int, rawPath []byte) {
		if n < 2 || n > 64 || depth < 1 || depth > n-1 {
			return
		}
		sender := NodeID(int(senderRaw) % n)
		r, err := NewPathRanker(n, depth, sender)
		if err != nil {
			return // oversized universe: fallback territory, nothing to check
		}
		if length >= 1 && length <= depth && rank >= 0 && rank < r.Count(length) {
			p, ok := r.Unrank(length, rank, nil)
			if !ok {
				t.Fatalf("Unrank(%d, %d) failed in range", length, rank)
			}
			idx, ok := r.Index(p)
			if !ok || idx != r.Offset(length)+rank {
				t.Fatalf("Index(Unrank(%d, %d)) = %d (%v), want %d", length, rank, idx, ok, r.Offset(length)+rank)
			}
		}
		if len(rawPath) > 0 {
			p := make(Path, 0, len(rawPath)+1)
			p = append(p, sender)
			for _, b := range rawPath {
				p = append(p, NodeID(int(b)%(n+2)-1)) // include some invalid IDs
			}
			if idx, ok := r.Index(p); ok {
				q, ok2 := r.Unrank(len(p), idx-r.Offset(len(p)), nil)
				if !ok2 || q.Compare(p) != 0 {
					t.Fatalf("Unrank(Index(%v)) = %v (%v)", p, q, ok2)
				}
			}
		}
	})
}
