package wire

import (
	"encoding/binary"
	"fmt"

	"degradable/internal/types"
)

// Cluster frame types. The cluster runtime (internal/cluster) reuses this
// package's length-prefixed framing for its node-to-node protocol: a Hello
// identifies the dialing node once per connection, and RoundBatch frames
// carry each round's messages, chunked to respect MaxFrame.
const (
	// TypeHello identifies the dialing node on a cluster connection. It is
	// sent exactly once, as the first frame after dialing; the accepting
	// node binds the connection to that identity and stamps every received
	// message's From field from it (§4 assumption c: receivers know the
	// sender, so a Byzantine node cannot forge another's identity by lying
	// inside a message body).
	TypeHello = 3
	// TypeRoundBatch carries the sender's messages addressed to this peer
	// for one round, possibly split across several chunks. The final chunk
	// is flagged; a flagged empty batch is the round-done marker, so a
	// peer with nothing to say is distinguishable from a silent (faulty or
	// partitioned) one — absence of the marker past the round deadline is
	// the detectable absence of §4 assumption (b).
	TypeRoundBatch = 4
)

// batchLast flags the chunk that completes a round's batch.
const batchLast = 1

// batchOverhead is the fixed per-chunk payload size: the 10-byte common
// header plus flags (1) and message count (2).
const batchOverhead = 10 + 1 + 2

// AppendHello appends a hello frame identifying the dialing node. It is
// AppendHelloInc at incarnation zero: the compact single-byte body every
// first-launch connection uses.
func AppendHello(buf []byte, node types.NodeID) ([]byte, error) {
	return AppendHelloInc(buf, node, 0)
}

// AppendHelloInc appends a hello carrying the dialing node's incarnation: 0
// for a process's first launch, k > 0 for its k-th restart after a crash. A
// nonzero incarnation is how a restarted node re-enters the mesh — the
// accepting peer rebinds its connection for that identity when (and only
// when) the incarnation is newer than the one currently bound, so a stale
// duplicate Hello can never hijack a live connection. Incarnation zero
// encodes as the 1-byte legacy body, so first-launch frames are unchanged.
func AppendHelloInc(buf []byte, node types.NodeID, inc int) ([]byte, error) {
	if node < 0 || node > 255 {
		return nil, fmt.Errorf("wire: hello node %d out of byte range", int(node))
	}
	if inc < 0 || inc > 255 {
		return nil, fmt.Errorf("wire: hello incarnation %d out of byte range", inc)
	}
	if inc == 0 {
		buf = appendHeader(buf, 10+1, TypeHello, 0)
		return append(buf, byte(node)), nil
	}
	buf = appendHeader(buf, 10+2, TypeHello, 0)
	return append(buf, byte(node), byte(inc)), nil
}

// DecodeHello decodes a hello payload, accepting both the 1-byte legacy
// body (incarnation zero) and the 2-byte restart form.
func DecodeHello(payload []byte) (types.NodeID, int, error) {
	_, b, err := header(payload, TypeHello)
	if err != nil {
		return 0, 0, err
	}
	switch len(b) {
	case 1:
		return types.NodeID(b[0]), 0, nil
	case 2:
		return types.NodeID(b[0]), int(b[1]), nil
	default:
		return 0, 0, fmt.Errorf("wire: hello body of %d bytes, want 1 or 2", len(b))
	}
}

// batchMessageSize returns the encoded size of one batch message:
// to (1) + path length (1) + path + value (8).
func batchMessageSize(m types.Message) int { return 2 + len(m.Path) + 8 }

// AppendRoundBatch appends the frames carrying msgs for the given round,
// chunked so that no frame exceeds MaxFrame. The last chunk is flagged;
// empty msgs yields a single flagged empty chunk — the round-done marker.
// Only To, Path, and Value are encoded: the receiver stamps From from the
// connection's hello-bound identity and Round from the frame's round tag,
// so neither can be forged in the message body.
func AppendRoundBatch(buf []byte, round int, msgs []types.Message) ([]byte, error) {
	if round < 0 {
		return nil, fmt.Errorf("wire: negative round %d", round)
	}
	for {
		// Fill one chunk up to the frame budget.
		chunk := 0
		body := batchOverhead
		for chunk < len(msgs) && chunk < 0xFFFF {
			m := msgs[chunk]
			if m.To < 0 || m.To > 255 {
				return nil, fmt.Errorf("wire: batch message to %d out of byte range", int(m.To))
			}
			if len(m.Path) > 255 {
				return nil, fmt.Errorf("wire: batch message path of %d hops", len(m.Path))
			}
			sz := batchMessageSize(m)
			if body+sz > MaxFrame {
				break
			}
			body += sz
			chunk++
		}
		if chunk == 0 && len(msgs) > 0 {
			return nil, fmt.Errorf("wire: batch message exceeds the %d-byte frame limit", MaxFrame)
		}
		last := chunk == len(msgs)
		buf = appendHeader(buf, body, TypeRoundBatch, uint64(round))
		if last {
			buf = append(buf, batchLast)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(chunk))
		for _, m := range msgs[:chunk] {
			buf = append(buf, byte(m.To), byte(len(m.Path)))
			for _, hop := range m.Path {
				if hop < 0 || hop > 255 {
					return nil, fmt.Errorf("wire: batch path hop %d out of byte range", int(hop))
				}
				buf = append(buf, byte(hop))
			}
			buf = binary.BigEndian.AppendUint64(buf, uint64(m.Value))
		}
		if last {
			return buf, nil
		}
		msgs = msgs[chunk:]
	}
}

// DecodeRoundBatch decodes one round-batch chunk. The returned messages
// carry To, Path, Value, and Round (from the frame's round tag); the caller
// stamps From with the connection's hello-bound identity. last reports
// whether this chunk completes the round's batch.
func DecodeRoundBatch(payload []byte) (round int, msgs []types.Message, last bool, err error) {
	id, b, err := header(payload, TypeRoundBatch)
	if err != nil {
		return 0, nil, false, err
	}
	if id > 1<<30 {
		return 0, nil, false, fmt.Errorf("wire: batch round %d out of range", id)
	}
	round = int(id)
	if len(b) < 3 {
		return 0, nil, false, fmt.Errorf("wire: truncated batch body (%d bytes)", len(b))
	}
	if b[0]&^batchLast != 0 {
		return 0, nil, false, fmt.Errorf("wire: unknown batch flags %#x", b[0])
	}
	last = b[0]&batchLast != 0
	count := int(binary.BigEndian.Uint16(b[1:3]))
	b = b[3:]
	// A message is at least 10 bytes (to, path length, value): a count the
	// body cannot hold is refused before it sizes anything.
	if count > len(b)/10 {
		return 0, nil, false, fmt.Errorf("wire: %d batch messages in %d bytes", count, len(b))
	}
	if count > 0 {
		msgs = make([]types.Message, 0, count)
	}
	for i := 0; i < count; i++ {
		if len(b) < 2 {
			return 0, nil, false, fmt.Errorf("wire: truncated batch message %d", i)
		}
		to, plen := types.NodeID(b[0]), int(b[1])
		b = b[2:]
		if len(b) < plen+8 {
			return 0, nil, false, fmt.Errorf("wire: truncated batch message %d", i)
		}
		var path []types.NodeID
		if plen > 0 {
			path = make([]types.NodeID, plen)
			for j := 0; j < plen; j++ {
				path[j] = types.NodeID(b[j])
			}
		}
		value := types.Value(binary.BigEndian.Uint64(b[plen : plen+8]))
		b = b[plen+8:]
		msgs = append(msgs, types.Message{To: to, Path: path, Value: value, Round: round})
	}
	if len(b) != 0 {
		return 0, nil, false, fmt.Errorf("wire: %d trailing batch bytes", len(b))
	}
	return round, msgs, last, nil
}
