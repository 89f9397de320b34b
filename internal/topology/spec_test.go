package topology

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"degradable/internal/types"
)

func TestParseSpecRoundTripAndKappa(t *testing.T) {
	cases := []struct {
		def   string
		nodes int
		kappa int
	}{
		{"complete:7", 7, 6},
		{"ring:6", 6, 2},
		{"hypercube:4", 16, 4},
		{"harary:4:9", 9, 4},
		{"harary:3:8", 8, 3},
		{"bridge:3:4:3", 10, 4},
		{"bridge:2:2:2", 6, 2},
		{"cliquering:5:2", 10, 4},
	}
	for _, tc := range cases {
		sp, err := ParseSpec(tc.def)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", tc.def, err)
		}
		if got := sp.String(); got != tc.def {
			t.Errorf("%q round-trips to %q", tc.def, got)
		}
		if n, err := sp.Nodes(); err != nil || n != tc.nodes {
			t.Errorf("%q Nodes() = %d, %v; want %d", tc.def, n, err, tc.nodes)
		}
		g, err := sp.Build()
		if err != nil {
			t.Fatalf("%q Build: %v", tc.def, err)
		}
		if got := g.VertexConnectivity(); got != tc.kappa {
			t.Errorf("%q: κ = %d, want %d", tc.def, got, tc.kappa)
		}
	}
}

func TestParseSpecRejectsMalformed(t *testing.T) {
	for _, def := range []string{
		"", "nosuch:5", "complete", "complete:x", "harary:4", "harary:9:4",
		"harary:3:9", "gnp:5:0.5", "gnp:5:1.5:1", "gnp:5:zz:1", "bridge:0:2:2",
		"hypercube:7", "ring:2", "cliquering:2:3",
		"gnp:8:NaN:1", "gnp:8:Inf:1", "gnp:8:-Inf:1", "gnp:8:0:1",
	} {
		if _, err := ParseSpec(def); err == nil {
			t.Errorf("ParseSpec(%q) accepted", def)
		}
	}
}

func TestGnpRejectsBadProbability(t *testing.T) {
	for _, p := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -0.1, 1.01} {
		if _, err := Gnp(8, p, 1); err == nil || !strings.Contains(err.Error(), "p in (0,1]") {
			t.Errorf("Gnp(8, %v, 1) = %v, want a range error", p, err)
		}
	}
}

func TestGnpDeterministicAndConnected(t *testing.T) {
	sp, err := ParseSpec("gnp:9:0.5:7")
	if err != nil {
		t.Fatal(err)
	}
	g1, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	g2, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !g1.Connected() {
		t.Fatal("gnp draw not connected")
	}
	if !reflect.DeepEqual(g1.EdgeList(), g2.EdgeList()) {
		t.Fatal("gnp draws with equal seeds differ")
	}
	sp.Seed = 8
	g3, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(g1.EdgeList(), g3.EdgeList()) {
		t.Fatal("gnp draws with different seeds coincide (suspicious)")
	}
}

func TestSpecRemovedEdges(t *testing.T) {
	sp, err := ParseSpec("complete:5")
	if err != nil {
		t.Fatal(err)
	}
	sp.Removed = [][2]int{{0, 1}, {0, 2}}
	g, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.HasEdge(0, 1) || g.HasEdge(0, 2) {
		t.Fatal("removed edges still present")
	}
	if got := g.VertexConnectivity(); got != 2 {
		t.Fatalf("κ after removals = %d, want 2", got)
	}
	sp.Removed = [][2]int{{0, 1}, {0, 1}}
	if _, err := sp.Build(); err == nil {
		t.Fatal("double removal accepted")
	}
}

func TestMinVertexCut(t *testing.T) {
	for _, def := range []string{"ring:6", "harary:3:8", "harary:4:9", "bridge:3:2:3", "hypercube:3", "cliquering:5:2"} {
		sp, err := ParseSpec(def)
		if err != nil {
			t.Fatal(err)
		}
		g, err := sp.Build()
		if err != nil {
			t.Fatal(err)
		}
		kappa := g.VertexConnectivity()
		cut := g.MinVertexCut()
		if len(cut) != kappa {
			t.Fatalf("%s: |cut| = %d, κ = %d", def, len(cut), kappa)
		}
		// Removing the cut must disconnect the graph: rebuild without the
		// cut nodes' edges and check the remaining nodes split.
		if !disconnectsWithout(g, cut) {
			t.Fatalf("%s: removing cut %v does not disconnect", def, cut)
		}
	}
	comp, _ := Complete(5)
	if cut := comp.MinVertexCut(); cut != nil {
		t.Fatalf("complete graph has a cut %v", cut)
	}
}

// disconnectsWithout reports whether g minus the given vertices is
// disconnected (or has fewer than 2 vertices left, vacuously true).
func disconnectsWithout(g *Graph, cut []types.NodeID) bool {
	var gone types.NodeSet
	for _, id := range cut {
		gone = gone.Add(id)
	}
	var start types.NodeID = -1
	remaining := 0
	for v := 0; v < g.N(); v++ {
		if !gone.Contains(types.NodeID(v)) {
			remaining++
			if start < 0 {
				start = types.NodeID(v)
			}
		}
	}
	if remaining < 2 {
		return true
	}
	seen := map[types.NodeID]bool{start: true}
	stack := []types.NodeID{start}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.Neighbors(v) {
			if gone.Contains(w) || seen[w] {
				continue
			}
			seen[w] = true
			stack = append(stack, w)
		}
	}
	return len(seen) < remaining
}
