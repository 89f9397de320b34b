package topology

import (
	"reflect"
	"sync"
	"testing"

	"degradable/internal/types"
)

// routeSpecs are the graphs the route-table tests cover: the chaos
// campaign's default draw pool, the topology sweep's two extra rows, the
// sim_sync benchmark's sparse families, and one edge-shaved variant.
func routeSpecs(t *testing.T) []Spec {
	t.Helper()
	defs := []string{
		// chaos.DefaultTopoFamilies (the sweep's at-or-above-bound rows).
		"complete:7", "harary:4:9", "hypercube:4", "bridge:3:4:3", "cliquering:4:2", "gnp:9:0.7:1",
		// The sweep's below-bound rows.
		"harary:3:8", "bridge:3:3:3",
		// The benchmark's sparse families.
		"harary:4:8", "hypercube:3",
	}
	var out []Spec
	for _, def := range defs {
		sp, err := ParseSpec(def)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sp)
	}
	shaved, err := ParseSpec("harary:4:9")
	if err != nil {
		t.Fatal(err)
	}
	shaved.Removed = [][2]int{{0, 1}}
	return append(out, shaved)
}

// TestRoutesMatchPerPairFlow holds the route table to the per-pair flow it
// replaces: for every budget k up to κ+1 and every ordered pair, the table
// holds exactly DisjointPaths(s, t, k), adjacent pairs hold nothing, and
// the table's width and Fit report the narrowest pair.
func TestRoutesMatchPerPairFlow(t *testing.T) {
	for _, sp := range routeSpecs(t) {
		g, err := sp.Build()
		if err != nil {
			t.Fatal(err)
		}
		name := sp.key()
		for k := 1; k <= g.VertexConnectivity()+1; k++ {
			r, err := NewRoutes(g, k)
			if err != nil {
				t.Fatal(err)
			}
			if r.n != g.N() || r.k != k {
				t.Fatalf("%s k=%d: table holds n=%d k=%d", name, k, r.n, r.k)
			}
			width := k
			for a := 0; a < g.N(); a++ {
				for b := 0; b < g.N(); b++ {
					s, d := types.NodeID(a), types.NodeID(b)
					if a == b {
						continue
					}
					if g.HasEdge(s, d) {
						if !r.Adjacent(s, d) || r.Paths(s, d) != nil {
							t.Errorf("%s k=%d: edge %d-%d adjacent=%v paths=%v", name, k, a, b, r.Adjacent(s, d), r.Paths(s, d))
						}
						continue
					}
					want, err := g.DisjointPaths(s, d, k)
					if err != nil {
						t.Fatal(err)
					}
					if r.Adjacent(s, d) || !reflect.DeepEqual(r.Paths(s, d), want) {
						t.Errorf("%s k=%d: %d→%d table %v, flow %v", name, k, a, b, r.Paths(s, d), want)
					}
					if len(want) < width {
						width = len(want)
					}
				}
			}
			if r.width != width {
				t.Errorf("%s k=%d: width %d, narrowest pair has %d", name, k, r.width, width)
			}
			if k >= 2 {
				if err := r.Fit(0, k-1, true); (err == nil) != (width == k) {
					t.Errorf("%s k=%d width=%d: strict Fit = %v", name, k, width, err)
				}
				if err := r.Fit(0, k-1, false); err != nil {
					t.Errorf("%s k=%d: loose Fit = %v", name, k, err)
				}
			}
		}
	}
}

// TestFitRefusals pins Fit's refusals: a nil table, an infeasible instance,
// and a table built for another budget.
func TestFitRefusals(t *testing.T) {
	g, err := Harary(4, 9)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRoutes(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	var none *Routes
	for _, tc := range []struct {
		r    *Routes
		m, u int
	}{{none, 1, 2}, {r, 2, 1}, {r, 1, 0}, {r, 1, 1}} {
		if err := tc.r.Fit(tc.m, tc.u, false); err == nil {
			t.Errorf("Fit(m=%d, u=%d) on %v accepted", tc.m, tc.u, tc.r)
		}
	}
	if err := r.Fit(1, 2, true); err != nil {
		t.Errorf("κ=4 table refused m=1 u=2: %v", err)
	}
	if _, err := NewRoutes(g, 0); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := NewRoutes(nil, 4); err == nil {
		t.Error("nil graph accepted")
	}
}

// TestMemoColdEqualsWarm checks a warm lookup shares the cold one's
// analysis, that the analysis equals a fresh computation, and that two
// spellings of one graph share an entry.
func TestMemoColdEqualsWarm(t *testing.T) {
	mm := NewMemo()
	specs := routeSpecs(t)
	for _, sp := range specs {
		cold, err := mm.Analyze(sp)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := mm.Analyze(sp)
		if err != nil {
			t.Fatal(err)
		}
		if warm != cold {
			t.Fatalf("%s: warm lookup did not return the kept analysis", sp.key())
		}
		checkAnalysis(t, sp, cold)
		k := cold.Kappa
		if k < 1 {
			k = 1
		}
		r1, err := cold.Routes(k)
		if err != nil {
			t.Fatal(err)
		}
		if r2, _ := warm.Routes(k); r2 != r1 {
			t.Errorf("%s: second Routes(%d) rebuilt the table", sp.key(), k)
		}
	}
	if kept(mm) != len(specs) {
		t.Errorf("memo keeps %d graphs, want %d", kept(mm), len(specs))
	}
	a, err := mm.Analyze(mustSpec(t, "gnp:9:0.7:1"))
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := mm.Analyze(mustSpec(t, "gnp:9:0.70:1")); b != a {
		t.Error("two spellings of one gnp graph got separate analyses")
	}
}

// TestMemoBoundedPastCap fills a memo past MemoCap with distinct
// edge-shaved variants: it keeps at most MemoCap graphs, and every answer,
// kept or not, equals a fresh computation.
func TestMemoBoundedPastCap(t *testing.T) {
	base := mustSpec(t, "complete:12")
	g, err := base.Build()
	if err != nil {
		t.Fatal(err)
	}
	edges := g.EdgeList()
	if len(edges) <= MemoCap {
		t.Fatalf("%d edges cannot overfill a memo of %d", len(edges), MemoCap)
	}
	mm := NewMemo()
	for _, e := range edges {
		sp := base
		sp.Removed = [][2]int{{int(e[0]), int(e[1])}}
		a, err := mm.Analyze(sp)
		if err != nil {
			t.Fatal(err)
		}
		if kept(mm) > MemoCap {
			t.Fatalf("memo grew to %d graphs, cap %d", kept(mm), MemoCap)
		}
		checkAnalysis(t, sp, a)
	}
	if kept(mm) != MemoCap {
		t.Errorf("memo keeps %d graphs after %d distinct keys, want %d", kept(mm), len(edges), MemoCap)
	}
}

// TestMemoConcurrentFirstUse has 8 goroutines ask an empty memo for one
// graph's analysis, cut and route table at once: all of them must get the
// same shared values.
func TestMemoConcurrentFirstUse(t *testing.T) {
	mm := NewMemo()
	sp := mustSpec(t, "hypercube:4")
	const workers = 8
	got := make([]*Routes, workers)
	cuts := make([][]types.NodeID, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			a, err := mm.Analyze(sp)
			if err != nil {
				t.Error(err)
				return
			}
			cuts[w] = a.Cut()
			got[w], err = a.Routes(4)
			if err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	a, _ := mm.Analyze(sp)
	want, _ := a.Routes(4)
	for w := range got {
		if got[w] != want || !reflect.DeepEqual(cuts[w], a.Cut()) {
			t.Errorf("worker %d got its own table or cut", w)
		}
	}
}

// checkAnalysis compares an analysis with a fresh build of its spec.
func checkAnalysis(t *testing.T, sp Spec, a *Analysis) {
	t.Helper()
	g, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	if a.N != g.N() || a.Kappa != g.VertexConnectivity() {
		t.Errorf("%s: analysis n=%d κ=%d, fresh n=%d κ=%d", sp.key(), a.N, a.Kappa, g.N(), g.VertexConnectivity())
	}
	if !reflect.DeepEqual(a.Cut(), g.MinVertexCut()) {
		t.Errorf("%s: cut %v, fresh %v", sp.key(), a.Cut(), g.MinVertexCut())
	}
	k := a.Kappa
	if k < 1 {
		k = 1
	}
	r, err := a.Routes(k)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewRoutes(g, k)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, fresh) {
		t.Errorf("%s: Routes(%d) differs from a fresh table", sp.key(), k)
	}
}

// kept returns the number of graphs mm keeps.
func kept(mm *Memo) int {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	return len(mm.m)
}

func mustSpec(t *testing.T, def string) Spec {
	t.Helper()
	sp, err := ParseSpec(def)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}
