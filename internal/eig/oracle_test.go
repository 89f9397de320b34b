package eig

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"degradable/internal/types"
)

// mapTree is the string-keyed map engine Tree used to fall back to, kept as
// the reference the dense store is differentially tested against: claims in
// a map keyed by types.Path.Key, Resolve as the paper's recursive definition,
// and its own snapshot codec written from the format comment. It shares no
// storage, ranking or codec code with Tree.
type mapTree struct {
	n, depth int
	sender   types.NodeID
	vals     map[string]types.Value
}

func newMapTree(n, depth int, sender types.NodeID) *mapTree {
	return &mapTree{n: n, depth: depth, sender: sender, vals: make(map[string]types.Value)}
}

func (t *mapTree) valid(p types.Path) bool {
	return len(p) >= 1 && len(p) <= t.depth && p[0] == t.sender && p.Valid(t.n)
}

func (t *mapTree) Set(p types.Path, v types.Value) error {
	if !t.valid(p) {
		return fmt.Errorf("oracle: invalid path %s", p)
	}
	if _, dup := t.vals[p.Key()]; !dup {
		t.vals[p.Key()] = v
	}
	return nil
}

func (t *mapTree) Get(p types.Path) types.Value {
	if v, ok := t.vals[p.Key()]; ok {
		return v
	}
	return types.Default
}

func (t *mapTree) Has(p types.Path) bool { _, ok := t.vals[p.Key()]; return ok }
func (t *mapTree) Stored() int           { return len(t.vals) }
func (t *mapTree) Reset()                { clear(t.vals) }

// Resolve is the recursive definition: a leaf reads its stored value, an
// inner path σ gathers its own value then its children's resolved values in
// ascending node-ID order, skipping self, and applies rule with n_σ.
func (t *mapTree) Resolve(self types.NodeID, rule Rule) types.Value {
	return t.resolve(types.Path{t.sender}, self, rule)
}

func (t *mapTree) resolve(p types.Path, self types.NodeID, rule Rule) types.Value {
	if len(p) == t.depth {
		return t.Get(p)
	}
	vals := []types.Value{t.Get(p)}
	for j := 0; j < t.n; j++ {
		if id := types.NodeID(j); id != self && !p.Contains(id) {
			vals = append(vals, t.resolve(p.Append(id), self, rule))
		}
	}
	return rule.Decide(t.n-(len(p)-1), vals)
}

// each calls fn on every valid path, length-major and lexicographic within
// a length: the snapshot's record order.
func (t *mapTree) each(fn func(types.Path)) {
	var walk func(p types.Path, length int)
	walk = func(p types.Path, length int) {
		if len(p) == length {
			fn(p)
			return
		}
		for j := 0; j < t.n; j++ {
			if id := types.NodeID(j); !p.Contains(id) {
				walk(p.Append(id), length)
			}
		}
	}
	for l := 1; l <= t.depth; l++ {
		walk(types.Path{t.sender}, l)
	}
}

// Export encodes the recorded claims in the snapshot format.
func (t *mapTree) Export() []byte {
	buf := binary.BigEndian.AppendUint32(nil, snapMagic)
	buf = append(buf, snapVersion, byte(t.n), byte(t.depth), byte(t.sender))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(t.vals)))
	t.each(func(p types.Path) {
		if !t.Has(p) {
			return
		}
		buf = append(buf, byte(len(p)))
		for _, id := range p {
			buf = append(buf, byte(id))
		}
		buf = binary.BigEndian.AppendUint64(buf, uint64(t.Get(p)))
	})
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// Import decodes a snapshot, accepting exactly what the format allows, and
// stores nothing unless every record is valid.
func (t *mapTree) Import(data []byte) error {
	if len(data) < snapHeader+snapTrailer {
		return fmt.Errorf("oracle: truncated")
	}
	body := data[:len(data)-snapTrailer]
	if binary.BigEndian.Uint32(data[len(body):]) != crc32.ChecksumIEEE(body) {
		return fmt.Errorf("oracle: checksum")
	}
	if binary.BigEndian.Uint32(body) != snapMagic || body[4] != snapVersion ||
		int(body[5]) != t.n || int(body[6]) != t.depth || types.NodeID(body[7]) != t.sender {
		return fmt.Errorf("oracle: header")
	}
	total, perm := 0, 1
	for l := 1; l <= t.depth; l++ {
		total += perm
		perm *= t.n - l
	}
	if int(binary.BigEndian.Uint32(body[8:12])) > total {
		return fmt.Errorf("oracle: more records than paths")
	}
	var paths []types.Path
	var vals []types.Value
	rest := body[snapHeader:]
	for i := binary.BigEndian.Uint32(body[8:12]); i > 0; i-- {
		if len(rest) < 1 || len(rest) < 1+int(rest[0])+8 {
			return fmt.Errorf("oracle: record truncated")
		}
		plen := int(rest[0])
		p := make(types.Path, plen)
		for j := range p {
			p[j] = types.NodeID(rest[1+j])
		}
		if !t.valid(p) {
			return fmt.Errorf("oracle: invalid path %s", p)
		}
		paths = append(paths, p)
		vals = append(vals, types.Value(binary.BigEndian.Uint64(rest[1+plen:])))
		rest = rest[1+plen+8:]
	}
	if len(rest) != 0 {
		return fmt.Errorf("oracle: trailing bytes")
	}
	for i, p := range paths {
		_ = t.Set(p, vals[i])
	}
	return nil
}
