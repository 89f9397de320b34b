// Package types defines the fundamental vocabulary shared by every other
// package in this module: node identifiers, agreement values (including the
// paper's distinguished default value V_d), relay paths, and messages.
//
// The types are deliberately small and copyable; protocol packages build on
// them without importing each other.
package types

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// NodeID identifies a node in the system. By convention node 0 is the sender
// unless a protocol says otherwise. IDs are dense: a system of N nodes uses
// IDs 0..N-1.
type NodeID int

// Value is an agreement value. The paper requires a default value V_d that is
// "distinguishable from all other values"; Default plays that role and must
// never be used as an application value.
type Value int64

// Default is V_d, the paper's distinguished default value. VOTE returns it on
// insufficient support or ties, and degraded agreement allows one of the two
// decision classes to hold it.
const Default Value = math.MinInt64

// IsDefault reports whether v is the distinguished default value V_d.
func (v Value) IsDefault() bool { return v == Default }

// String renders a value, printing the default distinctly.
func (v Value) String() string {
	if v == Default {
		return "V_d"
	}
	return fmt.Sprintf("%d", int64(v))
}

// Path is a relay chain: Path[0] is the originating sender and each
// subsequent element is the node that relayed the value. Paths never repeat a
// node. A Path is the label of one node in an EIG tree.
type Path []NodeID

// Contains reports whether id appears in p.
func (p Path) Contains(id NodeID) bool {
	for _, n := range p {
		if n == id {
			return true
		}
	}
	return false
}

// Append returns a new path with id appended; p is not modified.
func (p Path) Append(id NodeID) Path {
	q := make(Path, len(p)+1)
	copy(q, p)
	q[len(p)] = id
	return q
}

// Clone returns an independent copy of p.
func (p Path) Clone() Path {
	q := make(Path, len(p))
	copy(q, p)
	return q
}

// Last returns the final node of the path. It panics on an empty path, which
// is always a programming error.
func (p Path) Last() NodeID {
	if len(p) == 0 {
		panic("types: Last on empty path")
	}
	return p[len(p)-1]
}

// Valid reports whether the path has no repeated nodes and all IDs are in
// [0, n). The common case (all IDs ≤ MaxNodeSetID) runs allocation-free on
// a bitmask; larger systems fall back to a map.
func (p Path) Valid(n int) bool {
	if n <= MaxNodeSetID+1 {
		var seen NodeSet
		for _, id := range p {
			if id < 0 || int(id) >= n || seen.Contains(id) {
				return false
			}
			seen = seen.Add(id)
		}
		return true
	}
	seen := make(map[NodeID]bool, len(p))
	for _, id := range p {
		if id < 0 || int(id) >= n || seen[id] {
			return false
		}
		seen[id] = true
	}
	return true
}

// Key returns a compact string encoding of the path, usable as a map key.
// Distinct paths always yield distinct keys. The encoding is binary (one
// byte per ID below 255, an escape plus fixed width above), chosen so that
// the hot protocol loops never touch fmt; use String for display.
func (p Path) Key() string {
	if len(p) == 0 {
		return ""
	}
	buf := make([]byte, 0, len(p))
	for _, id := range p {
		buf = appendKeyID(buf, id)
	}
	return string(buf)
}

// appendKeyID appends the key encoding of one ID: a single byte for IDs in
// [0, 255), or 0xFF followed by 8 big-endian bytes for anything else.
func appendKeyID(buf []byte, id NodeID) []byte {
	if id >= 0 && id < 0xFF {
		return append(buf, byte(id))
	}
	v := uint64(int64(id))
	return append(buf, 0xFF,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// Compare orders paths element-wise numerically, shorter prefixes first.
// It agrees with the lexicographic order of Key for in-range IDs and is
// allocation-free, so engines can sort deliveries without building keys.
func (p Path) Compare(q Path) int {
	for i := 0; i < len(p) && i < len(q); i++ {
		if p[i] != q[i] {
			if p[i] < q[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(p) < len(q):
		return -1
	case len(p) > len(q):
		return 1
	default:
		return 0
	}
}

// String renders the path as "s→a→b".
func (p Path) String() string {
	if len(p) == 0 {
		return "ε"
	}
	parts := make([]string, len(p))
	for i, id := range p {
		parts[i] = fmt.Sprintf("%d", int(id))
	}
	return strings.Join(parts, "→")
}

// Message is one protocol message. For relay (EIG-style) protocols, Path
// labels the claim being relayed: a message (Path=σ·j, From=j) asserts
// "j says that the value along σ is Value".
type Message struct {
	From  NodeID
	To    NodeID
	Round int
	Path  Path
	Value Value
}

// String renders the message for traces.
func (m Message) String() string {
	return fmt.Sprintf("r%d %d→%d [%s]=%s", m.Round, int(m.From), int(m.To), m.Path, m.Value)
}

// SortMessages orders messages deterministically (by From, then Path key,
// then To). Engines sort inboxes so runs are reproducible. slices.SortFunc
// with a comparator that captures nothing keeps the sort allocation-free,
// which the serving hot loop's zero-alloc guarantee depends on.
func SortMessages(ms []Message) {
	slices.SortFunc(ms, func(a, b Message) int { return CompareMessages(&a, &b) })
}

// CompareMessages is the three-way SortMessages order. It takes pointers so
// a caller holding messages in a slice can compare neighbours in place: the
// round engine checks each delivery against the inbox's last message to
// learn whether the inbox is already in order.
func CompareMessages(a, b *Message) int {
	if a.From != b.From {
		if a.From < b.From {
			return -1
		}
		return 1
	}
	if c := a.Path.Compare(b.Path); c != 0 {
		return c
	}
	switch {
	case a.To < b.To:
		return -1
	case a.To > b.To:
		return 1
	default:
		return 0
	}
}
