package cluster

import (
	"io"
	"net"
	"testing"
	"time"

	"degradable/internal/types"
	"degradable/internal/wire"
)

// batchFrames encodes count path-less messages for round r: one frame
// holds (MaxFrame-13)/10 of them, so a larger count spans several chunks,
// all but the last unfinished.
func batchFrames(t *testing.T, r, count int) []byte {
	t.Helper()
	msgs := make([]types.Message, count)
	for i := range msgs {
		msgs[i] = types.Message{To: 0, Value: types.Value(i)}
	}
	buf, err := wire.AppendRoundBatch(nil, r, msgs)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestReadPeerBoundsUnfinishedBatches pins the mesh reader's bounds on
// what a peer can make it hold: an unfinished batch for a round outside
// the run, or one past maxUnfinished, drops the connection, while a batch
// an honest peer sends — split over two chunks — is assembled whole.
func TestReadPeerBoundsUnfinishedBatches(t *testing.T) {
	const perFrame = (wire.MaxFrame - 13) / 10
	if got := maxUnfinished(4, 2); got != perFrame {
		t.Fatalf("maxUnfinished(4, 2) = %d, want one frame's %d", got, perFrame)
	}
	if got := maxUnfinished(40, 5); got != 40*38*37*36 {
		t.Fatalf("maxUnfinished(40, 5) = %d, want 40·P(38, 3)", got)
	}
	for _, tc := range []struct {
		name    string
		stream  []byte
		dropped bool
	}{
		{"two chunks", batchFrames(t, 1, perFrame+5), false},
		{"round past the run", batchFrames(t, 3, perFrame+5), true},
		{"round zero", batchFrames(t, 0, perFrame+5), true},
		{"past the cap", batchFrames(t, 2, 3*perFrame), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := &mesh{n: 4, rounds: 2, recv: make(chan peerBatch, 1)}
			peer, conn := net.Pipe()
			defer peer.Close()
			exited := make(chan struct{})
			go func() {
				m.readPeer(1, conn)
				close(exited)
			}()
			go peer.Write(tc.stream) // fails once the reader drops the conn
			if !tc.dropped {
				select {
				case b := <-m.recv:
					if b.peer != 1 || b.round != 1 || len(b.msgs) != perFrame+5 {
						t.Fatalf("batch from %d for round %d with %d messages", b.peer, b.round, len(b.msgs))
					}
				case <-time.After(10 * time.Second):
					t.Fatal("honest two-chunk batch never delivered")
				}
				return
			}
			select {
			case <-exited:
			case <-time.After(10 * time.Second):
				t.Fatal("reader kept the connection")
			}
			peer.SetReadDeadline(time.Now().Add(time.Second))
			if _, err := peer.Read(make([]byte, 1)); err != io.EOF {
				t.Fatalf("peer read after the drop: %v, want EOF", err)
			}
		})
	}
}
