package topology

import (
	"strconv"
	"strings"
	"sync"

	"degradable/internal/types"
)

// MemoCap bounds how many graphs a Memo keeps. Campaigns draw from a handful
// of definitions, but the shrinker's edge-removal candidates and replayed
// scenario JSON mint new keys without bound, so past the cap an analysis is
// computed and handed back without being kept.
const MemoCap = 64

// Analysis is the fault-independent analysis of one graph spec: its order,
// its vertex connectivity κ, a minimum vertex cut, and its route table per
// path budget. Theorem 3 makes all of it a property of the graph alone —
// relays corrupt copies only when delivering them — so one Analysis serves
// every run over the graph, whatever its faults. It is safe for concurrent
// use; the cut and the tables are computed on first request, then shared
// and read-only.
type Analysis struct {
	// N is the graph's order.
	N int
	// Kappa is the graph's vertex connectivity κ(G).
	Kappa int

	g       *Graph // never modified after Analyze builds it
	cutOnce sync.Once
	cut     []types.NodeID
	mu      sync.Mutex
	routes  map[int]*Routes
}

// Cut returns one minimum vertex cut (Graph.MinVertexCut). The slice is
// shared and read-only.
func (a *Analysis) Cut() []types.NodeID {
	a.cutOnce.Do(func() { a.cut = a.g.MinVertexCut() })
	return a.cut
}

// Routes returns the graph's route table for budget k (NewRoutes). Tables
// for k ≤ N are kept; a larger budget, which no agreement instance on this
// graph can ask for, is computed without being kept.
func (a *Analysis) Routes(k int) (*Routes, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if r, ok := a.routes[k]; ok {
		return r, nil
	}
	r, err := NewRoutes(a.g, k)
	if err == nil && k <= a.N {
		a.routes[k] = r
	}
	return r, err
}

// Memo maps graph specs to their analyses, bounded by MemoCap. It is safe
// for concurrent use.
type Memo struct {
	mu sync.Mutex
	m  map[string]*Analysis
}

// NewMemo returns an empty memo.
func NewMemo() *Memo { return &Memo{m: make(map[string]*Analysis)} }

// Shared is the process-wide memo every chaos run reads.
var Shared = NewMemo()

// Analyze returns sp's analysis, building the graph and computing κ on the
// first request for it. The key is the canonical Spec.String() plus the
// Removed list, so two spellings of one graph share an entry. The faults of
// the runs that will use it are not part of the key: nothing in an
// Analysis depends on them. A build error is returned and not kept.
func (mm *Memo) Analyze(sp Spec) (*Analysis, error) {
	key := sp.key()
	mm.mu.Lock()
	a, ok := mm.m[key]
	mm.mu.Unlock()
	if ok {
		return a, nil
	}
	g, err := sp.Build()
	if err != nil {
		return nil, err
	}
	a = &Analysis{N: g.N(), Kappa: g.VertexConnectivity(), g: g, routes: make(map[int]*Routes)}
	mm.mu.Lock()
	defer mm.mu.Unlock()
	if prev, ok := mm.m[key]; ok {
		return prev, nil // another caller analysed it first; share theirs
	}
	if len(mm.m) < MemoCap {
		mm.m[key] = a
	}
	return a, nil
}

// key is the memo key: the canonical string form, then "/a-b" per removed
// edge in removal order.
func (sp Spec) key() string {
	var b strings.Builder
	b.WriteString(sp.String())
	for _, e := range sp.Removed {
		b.WriteByte('/')
		b.WriteString(strconv.Itoa(e[0]))
		b.WriteByte('-')
		b.WriteString(strconv.Itoa(e[1]))
	}
	return b.String()
}
