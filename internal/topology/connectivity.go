package topology

import (
	"fmt"

	"degradable/internal/types"
)

// VertexConnectivity returns κ(G): the minimum number of vertices whose
// removal disconnects the graph (n−1 for complete graphs, 0 when already
// disconnected). It is computed from Menger's theorem as the minimum, over
// non-adjacent pairs (s, t), of the maximum number of internally-vertex-
// disjoint s–t paths, via unit-capacity max-flow on the vertex-split
// digraph.
func (g *Graph) VertexConnectivity() int {
	if g.n == 1 {
		return 0
	}
	if !g.Connected() {
		return 0
	}
	best := g.n - 1 // complete-graph ceiling
	for s := 0; s < g.n; s++ {
		for t := s + 1; t < g.n; t++ {
			a, b := types.NodeID(s), types.NodeID(t)
			if g.HasEdge(a, b) {
				continue
			}
			f := newFlow(g, a, b)
			k := 0
			for k < best && f.augment() {
				k++
			}
			if k < best {
				best = k
			}
		}
	}
	return best
}

// MinVertexCut returns one minimum vertex cut: a smallest set of vertices
// whose removal disconnects the graph, extracted from the max-flow residual
// graph of the κ-achieving pair (a vertex v is in the cut when its split
// arc v_in→v_out is saturated with v_in residually reachable from the
// source and v_out not). Complete graphs have no cut and return nil; a
// disconnected graph's cut is the empty (non-nil) set. The cut-set-targeted
// fault placement of the chaos engine arms exactly these nodes, realizing
// the Theorem 3 necessity adversary on arbitrary graphs.
func (g *Graph) MinVertexCut() []types.NodeID {
	if g.n == 1 {
		return nil
	}
	if !g.Connected() {
		return []types.NodeID{}
	}
	best := g.n - 1
	var bs, bt types.NodeID
	found := false
	for s := 0; s < g.n; s++ {
		for t := s + 1; t < g.n; t++ {
			a, b := types.NodeID(s), types.NodeID(t)
			if g.HasEdge(a, b) {
				continue
			}
			f := newFlow(g, a, b)
			k := 0
			for k <= best && f.augment() {
				k++
			}
			if k < best || !found {
				best, bs, bt, found = k, a, b, true
			}
		}
	}
	if !found {
		return nil // complete graph: every pair is adjacent
	}
	// Re-run the flow with effectively infinite edge-arc capacities: the
	// flow value is unchanged (internal split arcs still constrain each
	// vertex to one path) but the min cut is then made of split arcs only,
	// so the residual boundary reads off a true vertex cut.
	f := newFlowCap(g, bs, bt, g.n)
	for f.augment() {
	}
	reach := f.reachable()
	var cut []types.NodeID
	for v := 0; v < g.n; v++ {
		id := types.NodeID(v)
		if id == bs || id == bt {
			continue
		}
		if reach[vin(id)] && !reach[vout(id)] {
			cut = append(cut, id)
		}
	}
	return cut
}

// reachable marks the residual-graph vertices reachable from the source
// after the flow has been saturated.
func (f *flow) reachable() []bool {
	seen := make([]bool, f.size)
	src := vout(f.s)
	seen[src] = true
	queue := []int{src}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for y := 0; y < f.size; y++ {
			if f.res[x][y] > 0 && !seen[y] {
				seen[y] = true
				queue = append(queue, y)
			}
		}
	}
	return seen
}

// DisjointPaths returns up to limit internally-vertex-disjoint paths from s
// to t, each of the form [s, ..., t]. If {s,t} is an edge, the direct
// two-node path can be among them. The number of returned paths is
// min(limit, local vertex connectivity of the pair). Results are
// deterministic for a given graph.
func (g *Graph) DisjointPaths(s, t types.NodeID, limit int) ([][]types.NodeID, error) {
	if !g.valid(s) || !g.valid(t) || s == t {
		return nil, fmt.Errorf("topology: bad path endpoints %d, %d", int(s), int(t))
	}
	if limit < 1 {
		return nil, fmt.Errorf("topology: limit must be positive, got %d", limit)
	}
	return g.disjointPaths(s, t, limit), nil
}

// disjointPaths is DisjointPaths for endpoints and a limit already checked.
func (g *Graph) disjointPaths(s, t types.NodeID, limit int) [][]types.NodeID {
	f := newFlow(g, s, t)
	for i := 0; i < limit; i++ {
		if !f.augment() {
			break
		}
	}
	return f.decompose()
}

// flow is a unit-capacity max-flow instance on the vertex-split digraph:
// every vertex v becomes v_in (2v) and v_out (2v+1) joined by a capacity-1
// arc (capacity n for the endpoints); every undirected edge {u,v} becomes
// arcs u_out→v_in and v_out→u_in of capacity 1.
type flow struct {
	g    *Graph
	s, t types.NodeID
	size int
	cap  [][]int // original capacities
	res  [][]int // residual capacities
}

func vin(v types.NodeID) int  { return 2 * int(v) }
func vout(v types.NodeID) int { return 2*int(v) + 1 }

func newFlow(g *Graph, s, t types.NodeID) *flow { return newFlowCap(g, s, t, 1) }

// newFlowCap is newFlow with a configurable edge-arc capacity. Unit
// capacity keeps path decomposition trivial; MinVertexCut uses capacity n
// so the min cut lands on split arcs only.
func newFlowCap(g *Graph, s, t types.NodeID, edgeCap int) *flow {
	size := 2 * g.n
	f := &flow{g: g, s: s, t: t, size: size}
	f.cap = make([][]int, size)
	f.res = make([][]int, size)
	for i := range f.cap {
		f.cap[i] = make([]int, size)
		f.res[i] = make([]int, size)
	}
	set := func(x, y, c int) {
		f.cap[x][y] = c
		f.res[x][y] = c
	}
	for v := 0; v < g.n; v++ {
		id := types.NodeID(v)
		c := 1
		if id == s || id == t {
			c = g.n // effectively infinite
		}
		set(vin(id), vout(id), c)
	}
	for v := 0; v < g.n; v++ {
		for _, w := range g.Neighbors(types.NodeID(v)) {
			set(vout(types.NodeID(v)), vin(w), edgeCap)
		}
	}
	return f
}

// augment finds one augmenting path by BFS (lowest node index first, so
// results are deterministic) and pushes one unit.
func (f *flow) augment() bool {
	src, dst := vout(f.s), vin(f.t)
	prev := make([]int, f.size)
	for i := range prev {
		prev[i] = -1
	}
	prev[src] = src
	queue := []int{src}
	found := false
	for len(queue) > 0 && !found {
		x := queue[0]
		queue = queue[1:]
		for y := 0; y < f.size; y++ {
			if f.res[x][y] <= 0 || prev[y] >= 0 {
				continue
			}
			prev[y] = x
			if y == dst {
				found = true
				break
			}
			queue = append(queue, y)
		}
	}
	if !found {
		return false
	}
	for y := dst; y != src; {
		x := prev[y]
		f.res[x][y]--
		f.res[y][x]++
		y = x
	}
	return true
}

// decompose extracts the pushed flow as vertex paths s..t, consuming the
// flow as it goes.
func (f *flow) decompose() [][]types.NodeID {
	flowOn := func(x, y int) int {
		if d := f.cap[x][y] - f.res[x][y]; d > 0 {
			return d
		}
		return 0
	}
	var paths [][]types.NodeID
	for {
		cur := vout(f.s)
		path := []types.NodeID{f.s}
		progressed := false
		for cur != vin(f.t) {
			next := -1
			for y := 0; y < f.size; y++ {
				if flowOn(cur, y) > 0 {
					next = y
					break
				}
			}
			if next < 0 {
				break
			}
			f.res[cur][next]++ // consume one unit
			progressed = true
			cur = next
			if cur%2 == 0 { // an in-node: record the vertex
				path = append(path, types.NodeID(cur/2))
			}
		}
		if !progressed || cur != vin(f.t) {
			return paths
		}
		paths = append(paths, path)
	}
}
