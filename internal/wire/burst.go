package wire

import (
	"net"
	"sync"

	"degradable/internal/service"
)

// BurstWriter is the write side of a pipelined request connection: every
// request frame queued while a write is in progress goes out with the
// others in one conn.Write. Callers encode straight into the connection's
// buffer; a write loop, one per connection, writes whatever has queued
// each time the doorbell rings. A request that is the only one in flight
// and finds nothing writing is written inline instead, so an idle
// connection pays no hand-off to the loop.
//
// At most maxQueued bytes wait behind a write: a sender that finds that
// much queued waits for the loop to take it, so a peer that stops reading
// holds the senders back, as a blocked synchronous write would.
//
// Write errors are connection-level: a failed write records the error and
// closes the connection, so the owner's read loop fails every pending
// request, and every later Send returns the error.
type BurstWriter struct {
	conn net.Conn

	mu      sync.Mutex
	room    sync.Cond // on mu: broadcast when the queue is taken or err is set
	buf     []byte    // frames queued for the next write
	spare   []byte    // the other half of the double buffer; nil while being written
	writing bool      // a write (the loop's or an inline one) is in progress
	err     error     // set once: the failed write's error, or net.ErrClosed
	closed  bool      // conn has been closed, by whichever path came first

	bell chan struct{} // one-slot doorbell: frames queued with nothing writing
	done chan struct{} // closed when the write loop exits
}

// maxQueued caps the bytes queued for the next write. It is far above a
// pipelined burst (16 requests of ~100 B) and bounds both halves of the
// double buffer.
const maxQueued = 64 << 10

// NewBurstWriter takes over conn's write half and starts its write loop.
func NewBurstWriter(conn net.Conn) *BurstWriter {
	w := &BurstWriter{conn: conn, bell: make(chan struct{}, 1), done: make(chan struct{})}
	w.room.L = &w.mu
	go w.loop()
	return w
}

// Send encodes one request frame (tagged when tagged is set) into the
// connection's buffer. idle reports whether this request is the only one
// the caller has in flight: an idle request that finds nothing writing or
// queued is written before Send returns; any other is left to the write
// loop. Send waits while maxQueued bytes are already queued. It returns
// an encode error, with nothing of the frame queued, or the write error
// recorded before its frame was queued; a write of this frame that fails,
// inline or later, closes the connection and so reaches the caller
// through its read loop.
func (w *BurstWriter) Send(id uint64, tag Tag, tagged bool, req service.Request, idle bool) error {
	typ := uint8(TypeRequest)
	if tagged {
		typ = TypeTaggedRequest
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	// Queued frames wait behind a write in progress or the loop has been
	// rung for them, so the queue is taken (or the connection fails)
	// without this sender's help.
	for len(w.buf) >= maxQueued && w.err == nil {
		w.room.Wait()
	}
	if w.err != nil {
		return w.err
	}
	queued := len(w.buf)
	// appendRequest returns nil when it fails mid-frame; w.buf keeps its
	// length, so the partial frame is dropped at the frame boundary.
	buf, err := appendRequest(w.buf, id, typ, tag, req)
	if err != nil {
		return err
	}
	w.buf = buf
	switch {
	case w.writing:
		// The write in progress looks for queued frames when it finishes.
	case idle && queued == 0:
		w.writeQueued()
		if len(w.buf) > 0 {
			w.ring()
		}
	case queued == 0:
		w.ring()
	}
	return nil
}

// writeErr returns the connection's recorded write error, or nil.
func (w *BurstWriter) writeErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// closeConn closes the connection unless a failed write or Close already
// has, and returns that close's error (nil when it was closed before).
func (w *BurstWriter) closeConn() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.closeConnLocked()
}

func (w *BurstWriter) closeConnLocked() error {
	if w.closed {
		return nil
	}
	w.closed = true
	return w.conn.Close()
}

// Close closes the connection and waits for the write loop to exit.
// Frames still queued are dropped; later sends, and senders waiting for
// room, return net.ErrClosed. The error is the connection's close error,
// nil if a failed write had closed it already.
func (w *BurstWriter) Close() error {
	w.mu.Lock()
	if w.err == nil {
		w.err = net.ErrClosed
	}
	err := w.closeConnLocked()
	w.room.Broadcast()
	w.mu.Unlock()
	w.ring()
	<-w.done
	return err
}

// ring wakes the write loop without blocking.
func (w *BurstWriter) ring() {
	select {
	case w.bell <- struct{}{}:
	default:
	}
}

// loop writes everything queued each time the doorbell rings, until the
// connection fails or closes.
func (w *BurstWriter) loop() {
	defer close(w.done)
	for range w.bell {
		w.mu.Lock()
		for !w.writing && len(w.buf) > 0 && w.err == nil {
			w.writeQueued()
		}
		stop := w.err != nil
		w.mu.Unlock()
		if stop {
			return
		}
	}
}

// writeQueued writes the queued frames in one conn.Write, swapping the
// double buffer so senders keep queueing meanwhile (those waiting for room
// included). The caller holds mu; writeQueued releases it for the write.
func (w *BurstWriter) writeQueued() {
	out := w.buf
	w.buf, w.spare = w.spare[:0], nil
	w.writing = true
	w.room.Broadcast()
	w.mu.Unlock()
	_, err := w.conn.Write(out)
	w.mu.Lock()
	w.writing = false
	w.spare = out[:0]
	if err != nil && w.err == nil {
		w.err = err
		w.closeConnLocked()
		w.room.Broadcast()
		w.ring() // an inline write's failure must stop the loop too
	}
}
