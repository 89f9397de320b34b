package topology

import (
	"fmt"
	"strconv"
	"strings"

	"degradable/internal/rng"
	"degradable/internal/types"
)

// Spec is a serializable recipe for a graph: a family name plus its
// parameters, with an optional list of removed edges (the delta-debugger
// shaves a failing scenario's graph toward a minimal counterexample by
// appending to Removed). A Spec round-trips through its canonical
// "family:params" string form, so one string in a scenario's JSON replays
// the exact topology.
//
// Grammar (all parameters integers unless noted):
//
//	complete:N            K_N (κ = N−1)
//	ring:N                C_N (κ = 2)
//	hypercube:D           Q_D on 2^D nodes (κ = D)
//	harary:K:N            Harary H_{K,N} (κ = K)
//	bridge:N1:CUT:N2      two cliques joined through a CUT-node cut set (κ = CUT)
//	cliquering:K:S        ring of K cliques of size S, adjacent cliques
//	                      fully joined (κ = 2S for K ≥ 5; denser below)
//	gnp:N:P:SEED          random G(N, P) conditioned on connectivity
//	                      (P is a float; SEED makes the draw deterministic)
type Spec struct {
	Family string
	// A, B, C are the family's positional integer parameters (unused ones
	// stay zero): complete/ring/gnp use A=N; hypercube A=D; harary A=K,
	// B=N; bridge A=N1, B=CUT, C=N2; cliquering A=K, B=S.
	A, B, C int
	// P is gnp's edge probability.
	P float64
	// Seed drives gnp's deterministic draw.
	Seed int64
	// Removed lists edges (as [a, b] node pairs) deleted after
	// construction, in removal order.
	Removed [][2]int
}

// Families lists the family names ParseSpec accepts.
func Families() []string {
	return []string{"complete", "ring", "hypercube", "harary", "bridge", "cliquering", "gnp"}
}

// ParseSpec parses the canonical "family:params" form. The Removed list is
// not part of the string form (it travels as structured JSON alongside).
func ParseSpec(def string) (Spec, error) {
	parts := strings.Split(def, ":")
	sp := Spec{Family: parts[0]}
	ints := func(want int) ([]int, error) {
		if len(parts)-1 != want {
			return nil, fmt.Errorf("topology: %s wants %d parameters, got %d in %q", sp.Family, want, len(parts)-1, def)
		}
		out := make([]int, want)
		for i := range out {
			v, err := strconv.Atoi(parts[i+1])
			if err != nil {
				return nil, fmt.Errorf("topology: bad parameter %q in %q", parts[i+1], def)
			}
			out[i] = v
		}
		return out, nil
	}
	switch sp.Family {
	case "complete", "ring", "hypercube":
		v, err := ints(1)
		if err != nil {
			return Spec{}, err
		}
		sp.A = v[0]
	case "harary", "cliquering":
		v, err := ints(2)
		if err != nil {
			return Spec{}, err
		}
		sp.A, sp.B = v[0], v[1]
	case "bridge":
		v, err := ints(3)
		if err != nil {
			return Spec{}, err
		}
		sp.A, sp.B, sp.C = v[0], v[1], v[2]
	case "gnp":
		if len(parts) != 4 {
			return Spec{}, fmt.Errorf("topology: gnp wants N:P:SEED, got %q", def)
		}
		n, err := strconv.Atoi(parts[1])
		if err != nil {
			return Spec{}, fmt.Errorf("topology: bad gnp N %q", parts[1])
		}
		p, err := strconv.ParseFloat(parts[2], 64)
		if err != nil || !(p > 0 && p <= 1) { // NaN included
			return Spec{}, fmt.Errorf("topology: bad gnp P %q (want a float in (0,1])", parts[2])
		}
		seed, err := strconv.ParseInt(parts[3], 10, 64)
		if err != nil {
			return Spec{}, fmt.Errorf("topology: bad gnp SEED %q", parts[3])
		}
		sp.A, sp.P, sp.Seed = n, p, seed
	default:
		return Spec{}, fmt.Errorf("topology: unknown graph family %q (want one of %s)", sp.Family, strings.Join(Families(), ", "))
	}
	if _, err := sp.Nodes(); err != nil {
		return Spec{}, err
	}
	return sp, nil
}

// String renders the canonical "family:params" form.
func (sp Spec) String() string {
	switch sp.Family {
	case "complete", "ring", "hypercube":
		return fmt.Sprintf("%s:%d", sp.Family, sp.A)
	case "harary", "cliquering":
		return fmt.Sprintf("%s:%d:%d", sp.Family, sp.A, sp.B)
	case "bridge":
		return fmt.Sprintf("%s:%d:%d:%d", sp.Family, sp.A, sp.B, sp.C)
	case "gnp":
		return fmt.Sprintf("gnp:%d:%s:%d", sp.A, strconv.FormatFloat(sp.P, 'g', -1, 64), sp.Seed)
	default:
		return fmt.Sprintf("%s:?", sp.Family)
	}
}

// Nodes returns the node count the spec builds, without building it.
func (sp Spec) Nodes() (int, error) {
	switch sp.Family {
	case "complete":
		if sp.A < 1 {
			return 0, fmt.Errorf("topology: complete needs N >= 1, got %d", sp.A)
		}
		return sp.A, nil
	case "ring":
		if sp.A < 3 {
			return 0, fmt.Errorf("topology: ring needs N >= 3, got %d", sp.A)
		}
		return sp.A, nil
	case "hypercube":
		if sp.A < 1 || sp.A > 6 {
			return 0, fmt.Errorf("topology: hypercube dim %d out of range [1,6]", sp.A)
		}
		return 1 << uint(sp.A), nil
	case "harary":
		if sp.A < 2 || sp.A >= sp.B || (sp.A%2 == 1 && sp.B%2 == 1) {
			return 0, fmt.Errorf("topology: harary needs 2 <= K < N (even N for odd K), got K=%d N=%d", sp.A, sp.B)
		}
		return sp.B, nil
	case "bridge":
		if sp.A < 1 || sp.B < 1 || sp.C < 1 {
			return 0, fmt.Errorf("topology: bridge needs positive N1:CUT:N2, got %d:%d:%d", sp.A, sp.B, sp.C)
		}
		return sp.A + sp.B + sp.C, nil
	case "cliquering":
		if sp.A < 3 || sp.B < 1 {
			return 0, fmt.Errorf("topology: cliquering needs K >= 3 cliques of S >= 1, got K=%d S=%d", sp.A, sp.B)
		}
		return sp.A * sp.B, nil
	case "gnp":
		if sp.A < 2 {
			return 0, fmt.Errorf("topology: gnp needs N >= 2, got %d", sp.A)
		}
		return sp.A, nil
	default:
		return 0, fmt.Errorf("topology: unknown graph family %q", sp.Family)
	}
}

// Build materializes the spec: family construction, then edge removals in
// order. The result is deterministic (gnp included — the draw is seeded).
func (sp Spec) Build() (*Graph, error) {
	n, err := sp.Nodes()
	if err != nil {
		return nil, err
	}
	if n > types.MaxNodeSetID+1 {
		return nil, fmt.Errorf("topology: %s builds %d nodes, limit %d", sp.String(), n, types.MaxNodeSetID+1)
	}
	var g *Graph
	switch sp.Family {
	case "complete":
		g, err = Complete(sp.A)
	case "ring":
		g, err = Cycle(sp.A)
	case "hypercube":
		g, err = Hypercube(sp.A)
	case "harary":
		g, err = Harary(sp.A, sp.B)
	case "bridge":
		g, err = Bridge(sp.A, sp.B, sp.C)
	case "cliquering":
		g, err = RingOfCliques(sp.A, sp.B)
	case "gnp":
		g, err = Gnp(sp.A, sp.P, sp.Seed)
	}
	if err != nil {
		return nil, err
	}
	for _, e := range sp.Removed {
		a, b := types.NodeID(e[0]), types.NodeID(e[1])
		if !g.HasEdge(a, b) {
			return nil, fmt.Errorf("topology: %s has no edge {%d,%d} to remove", sp.String(), e[0], e[1])
		}
		g.RemoveEdge(a, b)
	}
	return g, nil
}

// RingOfCliques returns k cliques of size s arranged in a ring, each pair
// of adjacent cliques fully joined. For k ≥ 5 its vertex connectivity is
// 2s (a cut must sever both ring directions); smaller rings are denser.
func RingOfCliques(k, s int) (*Graph, error) {
	if k < 3 || s < 1 {
		return nil, fmt.Errorf("topology: ring-of-cliques needs k >= 3, s >= 1, got k=%d s=%d", k, s)
	}
	g, err := NewGraph(k * s)
	if err != nil {
		return nil, err
	}
	member := func(c, i int) types.NodeID { return types.NodeID(c*s + i) }
	for c := 0; c < k; c++ {
		for i := 0; i < s; i++ {
			for j := i + 1; j < s; j++ {
				if err := g.AddEdge(member(c, i), member(c, j)); err != nil {
					return nil, err
				}
			}
			for j := 0; j < s; j++ {
				if err := g.AddEdge(member(c, i), member((c+1)%k, j)); err != nil {
					return nil, err
				}
			}
		}
	}
	return g, nil
}

// gnpAttempts bounds how many derived seeds a Gnp draw may burn looking for
// a connected sample before giving up.
const gnpAttempts = 64

// Gnp returns a random G(n, p) conditioned on connectivity: each edge is
// present independently with probability p, and disconnected draws are
// rejected (up to gnpAttempts derived re-draws, all deterministic in seed).
func Gnp(n int, p float64, seed int64) (*Graph, error) {
	if n < 2 || !(p > 0 && p <= 1) { // NaN included
		return nil, fmt.Errorf("topology: gnp needs n >= 2 and p in (0,1], got n=%d p=%v", n, p)
	}
	r := rng.New(seed)
	for attempt := 0; attempt < gnpAttempts; attempt++ {
		r.Seed(seed + int64(attempt)*6364136223846793005)
		g, err := NewGraph(n)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Float64() < p {
					if err := g.AddEdge(types.NodeID(i), types.NodeID(j)); err != nil {
						return nil, err
					}
				}
			}
		}
		if g.Connected() {
			return g, nil
		}
	}
	return nil, fmt.Errorf("topology: gnp(%d, %v, %d) produced no connected graph in %d draws", n, p, seed, gnpAttempts)
}
