package eig

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"degradable/internal/types"
)

// claimStore is the claim-level surface Tree and the mapTree oracle share.
type claimStore interface {
	Set(types.Path, types.Value) error
	Get(types.Path) types.Value
	Has(types.Path) bool
	Stored() int
}

// fillRandom stores a random subset of ref's valid paths with random values,
// identically into ref and every other given store.
func fillRandom(t testing.TB, rng *rand.Rand, ref *Tree, others ...claimStore) {
	t.Helper()
	for _, p := range enumeratePaths(ref) {
		if rng.Intn(3) != 0 {
			continue
		}
		v := types.Value(rng.Int63())
		for _, tr := range append([]claimStore{ref}, others...) {
			if err := tr.Set(p, v); err != nil {
				t.Fatalf("Set(%s): %v", p, err)
			}
		}
	}
}

// assertTreesEqual compares Has/Get over every valid path of shape.
func assertTreesEqual(t *testing.T, shape *Tree, got, want claimStore) {
	t.Helper()
	if got.Stored() != want.Stored() {
		t.Fatalf("Stored() = %d, want %d", got.Stored(), want.Stored())
	}
	for _, p := range enumeratePaths(shape) {
		if got.Has(p) != want.Has(p) {
			t.Fatalf("Has(%s) = %v, want %v", p, got.Has(p), want.Has(p))
		}
		if got.Get(p) != want.Get(p) {
			t.Fatalf("Get(%s) = %v, want %v", p, got.Get(p), want.Get(p))
		}
	}
}

// TestSnapshotRoundTrip holds Export and Import to the oracle's reference
// codec: equal claims export equal bytes, and each side imports the other's
// snapshot back to the same claims.
func TestSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, shape := range []struct{ n, depth, sender int }{
		{4, 2, 0}, {5, 2, 3}, {7, 3, 1}, {6, 1, 5},
	} {
		n, depth, sender := shape.n, shape.depth, types.NodeID(shape.sender)
		tree := mustNew(t, n, depth, sender)
		oracle := newMapTree(n, depth, sender)
		fillRandom(t, rng, tree, oracle)

		snap, err := tree.Export(nil)
		if err != nil {
			t.Fatal(err)
		}
		oracleSnap := oracle.Export()
		if !bytes.Equal(snap, oracleSnap) {
			t.Fatalf("n=%d: tree and oracle export different snapshots", n)
		}

		fresh := newMapTree(n, depth, sender)
		if err := fresh.Import(snap); err != nil {
			t.Fatalf("oracle import of the tree's snapshot: %v", err)
		}
		assertTreesEqual(t, tree, fresh, oracle)
		freshTree := mustNew(t, n, depth, sender)
		if err := freshTree.Import(oracleSnap); err != nil {
			t.Fatalf("tree import of the oracle's snapshot: %v", err)
		}
		assertTreesEqual(t, tree, freshTree, tree)
	}
}

// TestSnapshotEmptyTree round-trips a tree with no recorded claims.
func TestSnapshotEmptyTree(t *testing.T) {
	tr, _ := New(5, 2, 0)
	snap, err := tr.Export(nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh, _ := New(5, 2, 0)
	if err := fresh.Import(snap); err != nil {
		t.Fatal(err)
	}
	if fresh.Stored() != 0 {
		t.Fatalf("empty snapshot imported %d claims", fresh.Stored())
	}
}

// TestSnapshotRejectsShapeMismatch checks a snapshot only imports into a
// tree of the exact shape it was exported from.
func TestSnapshotRejectsShapeMismatch(t *testing.T) {
	tr, _ := New(5, 2, 0)
	tr.Set(types.Path{0}, 42)
	snap, err := tr.Export(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range []struct{ n, depth, sender int }{
		{6, 2, 0}, {5, 3, 0}, {5, 2, 1},
	} {
		other, _ := New(shape.n, shape.depth, types.NodeID(shape.sender))
		if err := other.Import(snap); err == nil {
			t.Errorf("shape n=%d depth=%d sender=%d accepted a 5/2/0 snapshot",
				shape.n, shape.depth, shape.sender)
		}
		if other.Stored() != 0 {
			t.Errorf("rejected import still stored %d claims", other.Stored())
		}
	}
}

// TestSnapshotRejectsTruncation checks every strict prefix of a valid
// snapshot fails to import (and mutates nothing).
func TestSnapshotRejectsTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr, _ := New(5, 2, 1)
	fillRandom(t, rng, tr)
	snap, err := tr.Export(nil)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(snap); cut++ {
		fresh, _ := New(5, 2, 1)
		if err := fresh.Import(snap[:cut]); err == nil {
			t.Fatalf("truncation to %d/%d bytes imported silently", cut, len(snap))
		}
		if fresh.Stored() != 0 {
			t.Fatalf("truncation to %d bytes partially imported %d claims", cut, fresh.Stored())
		}
	}
}

// TestSnapshotRejectsBitFlips flips every bit of a valid snapshot in turn:
// CRC32 detects any burst of at most 32 bits, so every single-bit
// corruption must surface as an error, never a silent import.
func TestSnapshotRejectsBitFlips(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tr, _ := New(5, 2, 0)
	fillRandom(t, rng, tr)
	snap, err := tr.Export(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(snap)*8; i++ {
		mut := append([]byte(nil), snap...)
		mut[i/8] ^= 1 << (i % 8)
		fresh, _ := New(5, 2, 0)
		if err := fresh.Import(mut); err == nil {
			t.Fatalf("bit flip at %d imported silently", i)
		}
		if fresh.Stored() != 0 {
			t.Fatalf("bit flip at %d partially imported %d claims", i, fresh.Stored())
		}
	}
}

// importAllocBound is the most Import may allocate for a snapshot of n
// bytes, the wire decoders' bound: a 10-byte record becomes a 32-byte
// claim plus its path.
func importAllocBound(n int) uint64 { return 16*uint64(n) + 1024 }

// checkImportAlloc fails the test when imp allocates past the bound on each
// of three runs: the count is process-wide, so one run over it may have
// taken in what another goroutine (the fuzzing engine's) allocated. imp
// must be repeatable: a failed import, or one into a tree it leaves
// readable again.
func checkImportAlloc(t *testing.T, data []byte, imp func()) {
	t.Helper()
	allocated := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		imp()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	limit := importAllocBound(len(data))
	got := allocated()
	for retry := 0; got > limit && retry < 2; retry++ {
		got = min(got, allocated())
	}
	if got > limit {
		t.Fatalf("importing %d bytes allocated %d, bound %d", len(data), got, limit)
	}
}

// TestSnapshotCountIsCappedBeforeAllocating pins the header's record count
// to what the bytes and the tree can hold: a 16-byte, checksum-valid
// snapshot that announces 2^20 records (or 2^32−1) is refused before the
// claim list is sized from the count, in under 1 kB.
func TestSnapshotCountIsCappedBeforeAllocating(t *testing.T) {
	tree := mustNew(t, 11, 4, 0)
	for _, count := range []uint32{1 << 20, 1<<32 - 1, uint32(tree.rk.Total()) + 1} {
		data := binary.BigEndian.AppendUint32(nil, snapMagic)
		data = append(data, snapVersion, 11, 4, 0)
		data = binary.BigEndian.AppendUint32(data, count)
		data = binary.BigEndian.AppendUint32(data, crc32.ChecksumIEEE(data))
		var err error
		checkImportAlloc(t, data, func() { err = tree.Import(data) })
		if err == nil || tree.Stored() != 0 {
			t.Fatalf("count %d: import of %d bytes returned %v and stored %d claims", count, len(data), err, tree.Stored())
		}
	}
	// Padded to hold the count's minimum records, a count past the tree's
	// paths is refused by the second cap alone.
	small := mustNew(t, 5, 2, 0)
	over := small.rk.Total() + 1
	data := binary.BigEndian.AppendUint32(nil, snapMagic)
	data = append(data, snapVersion, 5, 2, 0)
	data = binary.BigEndian.AppendUint32(data, uint32(over))
	data = append(data, make([]byte, over*snapMinRecord)...)
	data = binary.BigEndian.AppendUint32(data, crc32.ChecksumIEEE(data))
	if err := small.Import(data); err == nil || !strings.Contains(err.Error(), "announces") {
		t.Fatalf("count %d past %d paths: %v", over, small.rk.Total(), err)
	}
}

// FuzzSnapshotImport fuzzes Import against the oracle's reference decoder:
// arbitrary mutations of a valid snapshot must either error on both sides,
// leaving both empty, or import the same claims. Import allocates within
// importAllocBound.
func FuzzSnapshotImport(f *testing.F) {
	base, _ := New(5, 2, 0)
	rng := rand.New(rand.NewSource(17))
	fillRandom(f, rng, base)
	seed, err := base.Export(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed, uint16(0), byte(0))
	f.Add(seed, uint16(7), byte(0xFF))
	f.Add([]byte("EIGS"), uint16(0), byte(0))

	f.Fuzz(func(t *testing.T, data []byte, pos uint16, mask byte) {
		mut := append([]byte(nil), data...)
		if len(mut) > 0 {
			mut[int(pos)%len(mut)] ^= mask
		}
		tree, _ := New(5, 2, 0)
		oracle := newMapTree(5, 2, 0)
		var treeErr error
		checkImportAlloc(t, mut, func() { treeErr = tree.Import(mut) })
		oracleErr := oracle.Import(mut)
		if (treeErr == nil) != (oracleErr == nil) {
			t.Fatalf("decoders disagree: tree=%v oracle=%v", treeErr, oracleErr)
		}
		if treeErr != nil {
			if tree.Stored() != 0 || oracle.Stored() != 0 {
				t.Fatalf("failed import mutated a store (tree=%d oracle=%d claims)",
					tree.Stored(), oracle.Stored())
			}
			return
		}
		// Both must agree claim-for-claim on anything accepted, and an
		// accepted import must survive a full re-export/re-import cycle.
		assertTreesEqual(t, tree, tree, oracle)
		re, err := tree.Export(nil)
		if err != nil {
			t.Fatal(err)
		}
		again := newMapTree(5, 2, 0)
		if err := again.Import(re); err != nil {
			t.Fatalf("re-import of re-export: %v", err)
		}
		assertTreesEqual(t, tree, again, tree)
	})
}
