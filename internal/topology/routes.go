package topology

import (
	"errors"
	"fmt"

	"degradable/internal/types"
)

// Routes is one graph's route table for a path budget k: an adjacency
// snapshot, up to k internally-vertex-disjoint paths for every ordered
// non-adjacent pair, and the narrowest pair's width. Theorem 3's routing is
// a property of the graph alone (faulty relays act only when a copy passes
// through them), so every internal/transport channel on one graph reads one
// shared table. Nothing in it is written after
// NewRoutes returns: any number of channels and goroutines may share it,
// and the slices it hands out must not be modified.
type Routes struct {
	n, k int
	adj  []types.NodeSet
	// paths[s*n+t] holds DisjointPaths(s, t, k); nil on the diagonal, for
	// adjacent pairs, and for pairs the graph cannot connect at all.
	paths [][][]types.NodeID
	// width is the fewest paths any non-adjacent pair has (k when none is
	// short); narrow is the first pair, in row-major order, that has it.
	width  int
	narrow [2]types.NodeID
}

// NewRoutes computes g's route table for budget k: DisjointPaths(s, t, k)
// for every ordered non-adjacent pair. It is the one place the per-pair
// flow runs; Memo keeps its results per graph and budget.
func NewRoutes(g *Graph, k int) (*Routes, error) {
	if g == nil {
		return nil, errors.New("topology: nil graph")
	}
	if k < 1 {
		return nil, fmt.Errorf("topology: path budget must be positive, got %d", k)
	}
	n := g.n
	r := &Routes{
		n:     n,
		k:     k,
		adj:   append([]types.NodeSet(nil), g.adj...),
		paths: make([][][]types.NodeID, n*n),
		width: k,
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			s, t := types.NodeID(a), types.NodeID(b)
			if a == b || g.adj[a].Contains(t) {
				continue // the diagonal, or a direct wire
			}
			ps := g.disjointPaths(s, t, k)
			r.paths[a*n+b] = ps
			if len(ps) < r.width {
				r.width, r.narrow = len(ps), [2]types.NodeID{s, t}
			}
		}
	}
	return r, nil
}

// Adjacent reports whether {a, b} is an edge: a direct wire, never routed.
func (r *Routes) Adjacent(a, b types.NodeID) bool {
	return a >= 0 && int(a) < r.n && r.adj[a].Contains(b)
}

// Paths returns the disjoint paths from s to t, each of the form [s, ..., t]:
// nil for adjacent pairs, for s == t, for out-of-range nodes, and for pairs
// the graph cannot connect. The result is shared and read-only.
func (r *Routes) Paths(s, t types.NodeID) [][]types.NodeID {
	if s < 0 || t < 0 || int(s) >= r.n || int(t) >= r.n {
		return nil
	}
	return r.paths[int(s)*r.n+int(t)]
}

// Fit checks the table against an m/u channel: the instance is feasible,
// the table carries the m+u+1 paths per pair Theorem 3 routes over, and in
// strict mode every non-adjacent pair has all of them (the necessity half:
// a narrower graph cannot support the agreement). Loose mode, for the
// lower-bound demonstrations, routes over however many paths exist. It is
// the refusal transport.New reports.
func (r *Routes) Fit(m, u int, strict bool) error {
	if r == nil {
		return errors.New("topology: nil route table")
	}
	if m < 0 || u < m || u < 1 {
		return fmt.Errorf("topology: infeasible m=%d u=%d", m, u)
	}
	if need := m + u + 1; r.k != need {
		return fmt.Errorf("topology: route table holds %d paths per pair, m=%d u=%d needs %d", r.k, m, u, need)
	}
	if strict && r.width < r.k {
		return fmt.Errorf("topology: only %d disjoint paths between %d and %d, need %d (connectivity below m+u+1)",
			r.width, int(r.narrow[0]), int(r.narrow[1]), r.k)
	}
	return nil
}
