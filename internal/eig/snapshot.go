package eig

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"degradable/internal/types"
)

// Snapshot format: a versioned, checksummed serialization of a tree's
// recorded claims, independent of the tree's storage layout (the tests hold
// it to a reference codec over a map-backed oracle). It is the payload the cluster driver's crash-recovery
// checkpoints embed, so the hard requirement is the inverse of the usual
// one: corrupted bytes must never import *silently*. Every parse path
// either returns the exact recorded claims or an error; a tree handed
// corrupt bytes is left untouched.
//
//	magic   uint32  "EIGS"
//	version uint8   1
//	n       uint8   system size
//	depth   uint8   relay rounds
//	sender  uint8   root sender
//	count   uint32  recorded claims, at most the tree's path total
//	records count × (plen uint8, plen × uint8 hops, value uint64)
//	crc     uint32  IEEE CRC32 over every preceding byte
//
// All integers are big-endian. CRC32 detects any error burst of at most 32
// bits, so a single flipped or dropped byte can never pass; wholesale
// recomputed-checksum forgeries still have to survive the magic, version,
// shape, and per-path validity checks.
const (
	snapMagic   = 0x45494753 // "EIGS"
	snapVersion = 1
	// snapHeader is the fixed prefix: magic + version + n + depth + sender
	// + count.
	snapHeader = 4 + 1 + 1 + 1 + 1 + 4
	// snapTrailer is the CRC32 suffix.
	snapTrailer = 4
	// snapMinRecord is the smallest valid record: a one-hop path.
	snapMinRecord = 1 + 1 + 8
)

// Export appends a snapshot of the tree's recorded claims to buf and
// returns the extended slice. Claims are emitted in deterministic
// (length-major, lexicographic) order, so equal trees export equal bytes.
// Every node ID and the system size fit the format's bytes because New
// refuses n > 255 (the wire codec has the same bound).
func (t *Tree) Export(buf []byte) ([]byte, error) {
	start := len(buf)
	buf = binary.BigEndian.AppendUint32(buf, snapMagic)
	buf = append(buf, snapVersion, byte(t.n), byte(t.depth), byte(t.sender))
	buf = binary.BigEndian.AppendUint32(buf, uint32(t.Stored()))
	for length := 1; length <= t.depth; length++ {
		t.ForEachPath(length, -1, func(p types.Path) bool {
			if !t.Has(p) {
				return true
			}
			buf = append(buf, byte(len(p)))
			for _, hop := range p {
				buf = append(buf, byte(hop))
			}
			buf = binary.BigEndian.AppendUint64(buf, uint64(t.Get(p)))
			return true
		})
	}
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:])), nil
}

// Import replays a snapshot produced by Export into the tree, which must
// have the same shape (n, depth, sender) the snapshot was exported from.
// The snapshot is fully validated — checksum, header, shape, record bounds,
// per-path validity — before the first claim is applied, so a failed Import
// leaves the tree exactly as it was. Claims are applied with the tree's
// first-write-wins rule; importing into a non-empty tree keeps existing
// claims.
func (t *Tree) Import(data []byte) error {
	claims, err := t.parseSnapshot(data)
	if err != nil {
		return err
	}
	for _, c := range claims {
		if err := t.Set(c.path, c.value); err != nil {
			return err // unreachable: parse validated every path
		}
	}
	return nil
}

// claim is one parsed snapshot record.
type claim struct {
	path  types.Path
	value types.Value
}

// parseSnapshot validates data end to end and returns its claims without
// touching the tree.
func (t *Tree) parseSnapshot(data []byte) ([]claim, error) {
	if len(data) < snapHeader+snapTrailer {
		return nil, fmt.Errorf("eig: snapshot of %d bytes is truncated", len(data))
	}
	body, trailer := data[:len(data)-snapTrailer], data[len(data)-snapTrailer:]
	if got, want := binary.BigEndian.Uint32(trailer), crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("eig: snapshot checksum %08x, want %08x", got, want)
	}
	if magic := binary.BigEndian.Uint32(body); magic != snapMagic {
		return nil, fmt.Errorf("eig: bad snapshot magic %08x", magic)
	}
	if v := body[4]; v != snapVersion {
		return nil, fmt.Errorf("eig: unsupported snapshot version %d", v)
	}
	n, depth, sender := int(body[5]), int(body[6]), types.NodeID(body[7])
	if n != t.n || depth != t.depth || sender != t.sender {
		return nil, fmt.Errorf("eig: snapshot shape n=%d depth=%d sender=%d does not match tree n=%d depth=%d sender=%d",
			n, depth, int(sender), t.n, t.depth, int(t.sender))
	}
	count := int(binary.BigEndian.Uint32(body[8:12]))
	rest := body[snapHeader:]
	// The count sizes the claim list, so it is checked against what the
	// bytes and the tree can hold before anything is allocated: a valid
	// record is at least snapMinRecord bytes, and a tree records each of
	// its paths once.
	if count > len(rest)/snapMinRecord || count > t.rk.Total() {
		return nil, fmt.Errorf("eig: snapshot announces %d records in %d bytes for a tree of %d paths",
			count, len(rest), t.rk.Total())
	}
	claims := make([]claim, 0, count)
	for i := 0; i < count; i++ {
		if len(rest) < 1 {
			return nil, fmt.Errorf("eig: snapshot record %d truncated", i)
		}
		plen := int(rest[0])
		rest = rest[1:]
		if len(rest) < plen+8 {
			return nil, fmt.Errorf("eig: snapshot record %d truncated", i)
		}
		p := make(types.Path, plen)
		for j := 0; j < plen; j++ {
			p[j] = types.NodeID(rest[j])
		}
		if !t.ValidPath(p) {
			return nil, fmt.Errorf("eig: snapshot record %d carries invalid path %s", i, p)
		}
		v := types.Value(binary.BigEndian.Uint64(rest[plen : plen+8]))
		rest = rest[plen+8:]
		claims = append(claims, claim{path: p, value: v})
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("eig: %d trailing snapshot bytes", len(rest))
	}
	return claims, nil
}
