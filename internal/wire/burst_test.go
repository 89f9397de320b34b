package wire

import (
	"bytes"
	"context"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"degradable/internal/adversary"
	"degradable/internal/service"
	"degradable/internal/types"
	"degradable/internal/wire/wiretest"
)

// burstReq is the i-th request of the burst tests: varied values, and a
// fault on every third so the frames differ in length.
func burstReq(i int) service.Request {
	req := service.Request{N: 7, M: 1, U: 2, Sender: types.NodeID(i % 7), Value: types.Value(100 + i)}
	if i%3 == 0 {
		req.Faults = []adversary.FaultSpec{{Node: types.NodeID((i + 1) % 7), Kind: adversary.KindLie, Value: 9, Seed: int64(i)}}
	}
	return req
}

// wantFrames is the concatenation of AppendRequest's frames for IDs lo..hi.
func wantFrames(t *testing.T, lo, hi int) []byte {
	t.Helper()
	var want []byte
	for i := lo; i <= hi; i++ {
		var err error
		if want, err = AppendRequest(want, uint64(i), burstReq(i)); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// TestBurstCoalesces: with one frame in the write loop's blocked write and
// fifteen queued behind it, all sixteen reach the conn in two writes, in
// ID order, byte for byte the AppendRequest frames.
func TestBurstCoalesces(t *testing.T) {
	g := wiretest.NewGateConn()
	w := NewBurstWriter(g)
	if err := w.Send(1, Tag{}, false, burstReq(1), false); err != nil {
		t.Fatal(err)
	}
	<-g.Entered // the loop is writing frame 1
	for i := 2; i <= 16; i++ {
		if err := w.Send(uint64(i), Tag{}, false, burstReq(i), false); err != nil {
			t.Fatal(err)
		}
	}
	g.Release <- nil
	<-g.Entered // the loop's next write: everything queued meanwhile
	g.Release <- nil
	w.Close()
	g.NoMoreWrites(t)
	writes := g.Writes()
	if len(writes) > 2 {
		t.Fatalf("16 frames took %d writes, want at most 2", len(writes))
	}
	if got, want := bytes.Join(writes, nil), wantFrames(t, 1, 16); !bytes.Equal(got, want) {
		t.Fatalf("wire bytes differ from the AppendRequest frames in ID order:\n got %x\nwant %x", got, want)
	}
}

// TestBurstClientCoalesces is the same through Client: the first request
// is idle and written inline; the fifteen sent while that write blocks
// follow in the loop's one write.
func TestBurstClientCoalesces(t *testing.T) {
	g := wiretest.NewGateConn()
	c := NewClient(g)
	defer c.Close()
	first := make(chan error, 1)
	go func() {
		_, err := c.Send(burstReq(1))
		first <- err
	}()
	<-g.Entered
	for i := 2; i <= 16; i++ {
		if _, err := c.Send(burstReq(i)); err != nil {
			t.Fatal(err)
		}
	}
	g.Release <- nil
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	<-g.Entered
	g.Release <- nil
	c.Close()
	g.NoMoreWrites(t)
	writes := g.Writes()
	if len(writes) != 2 {
		t.Fatalf("16 frames took %d writes, want 2", len(writes))
	}
	if got, want := bytes.Join(writes, nil), wantFrames(t, 1, 16); !bytes.Equal(got, want) {
		t.Fatalf("wire bytes differ from the AppendRequest frames in ID order:\n got %x\nwant %x", got, want)
	}
}

// TestBurstIdleSendWritesInline: a Send with nothing else in flight has its
// frame on the conn before it returns — no hand-off to the write loop.
func TestBurstIdleSendWritesInline(t *testing.T) {
	g := wiretest.NewGateConn()
	c := NewClient(g)
	defer c.Close()
	sent := make(chan error, 1)
	go func() {
		_, err := c.Send(burstReq(1))
		sent <- err
	}()
	<-g.Entered
	select {
	case <-sent:
		t.Fatal("an idle Send returned before its write finished")
	case <-time.After(20 * time.Millisecond):
	}
	g.Release <- nil
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if writes := g.Writes(); len(writes) != 1 || !bytes.Equal(writes[0], wantFrames(t, 1, 1)) {
		t.Fatalf("writes after an idle Send: %x", writes)
	}
}

// TestBurstWriteFailureFailsPendingOnce: a failed coalesced write closes
// the connection, every pending request's channel is closed exactly once
// with no value, Do reports the write error as a lost connection, and the
// next Send returns an error.
func TestBurstWriteFailureFailsPendingOnce(t *testing.T) {
	g := wiretest.NewGateConn()
	c := NewClient(g)
	defer c.Close()
	chs := make([]<-chan Result, 16)
	first := make(chan error, 1)
	go func() {
		var err error
		chs[0], err = c.Send(burstReq(1))
		first <- err
	}()
	<-g.Entered
	for i := 2; i <= 16; i++ {
		ch, err := c.Send(burstReq(i))
		if err != nil {
			t.Fatal(err)
		}
		chs[i-1] = ch
	}
	g.Release <- nil
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	<-g.Entered
	boom := errors.New("boom: peer reset")
	g.Release <- boom
	for i, ch := range chs {
		if r, ok := <-ch; ok {
			t.Fatalf("request %d got a value after a failed write: %+v", i+1, r)
		}
	}
	if _, err := c.Send(burstReq(17)); err == nil || !strings.Contains(err.Error(), boom.Error()) {
		t.Fatalf("Send after a failed write: %v, want the write error", err)
	}
	if _, err := c.Do(context.Background(), burstReq(18)); err == nil ||
		!strings.Contains(err.Error(), "wire: connection lost") || !strings.Contains(err.Error(), boom.Error()) {
		t.Fatalf("Do after a failed write: %v, want a lost connection naming the write error", err)
	}
	c.mu.Lock()
	left := len(c.pending)
	c.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d requests still pending after the connection failed", left)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close after a failed write closed the conn: %v, want nil", err)
	}
}

// TestClientCloseAfterPeerClose: a connection the peer severed (the read
// loop's exit closes it) still closes without error.
func TestClientCloseAfterPeerClose(t *testing.T) {
	local, peer := net.Pipe()
	c := NewClient(local)
	peer.Close()
	<-c.readDone
	if err := c.Close(); err != nil {
		t.Fatalf("Close after the peer closed: %v, want nil", err)
	}
}

// fillQueue sends frames from ID next on, non-idle, until maxQueued bytes
// wait behind the write in progress, and returns the next unsent ID.
func fillQueue(t *testing.T, w *BurstWriter, next int) int {
	t.Helper()
	for w.queuedForTest() < maxQueued {
		if err := w.Send(uint64(next), Tag{}, false, burstReq(next), false); err != nil {
			t.Fatal(err)
		}
		next++
	}
	return next
}

// queuedForTest returns the bytes queued for the next write.
func (w *BurstWriter) queuedForTest() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.buf)
}

// TestBurstBackpressure: while a write is stuck, a sender that finds
// maxQueued bytes queued stays blocked until the write finishes and the
// loop takes the queue; then every frame reaches the conn in ID order.
func TestBurstBackpressure(t *testing.T) {
	g := wiretest.NewGateConn()
	w := NewBurstWriter(g)
	if err := w.Send(1, Tag{}, false, burstReq(1), false); err != nil {
		t.Fatal(err)
	}
	<-g.Entered // the loop's write of frame 1 is stuck
	last := fillQueue(t, w, 2)
	blocked := make(chan error, 1)
	go func() { blocked <- w.Send(uint64(last), Tag{}, false, burstReq(last), false) }()
	select {
	case err := <-blocked:
		t.Fatalf("a Send past the queue cap returned (%v) while the write was stuck", err)
	case <-time.After(50 * time.Millisecond):
	}
	if got := w.queuedForTest(); got >= maxQueued+64 {
		t.Fatalf("%d bytes queued behind a stuck write, cap %d", got, maxQueued)
	}
	g.Release <- nil
	<-g.Entered // the loop took the queue: the blocked sender has room
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
	g.Release <- nil
	<-g.Entered // the frame that waited
	g.Release <- nil
	w.Close()
	g.NoMoreWrites(t)
	if writes := g.Writes(); len(writes) != 3 {
		t.Fatalf("%d writes, want 3", len(writes))
	}
	if got, want := bytes.Join(g.Writes(), nil), wantFrames(t, 1, last); !bytes.Equal(got, want) {
		t.Fatal("wire bytes differ from the AppendRequest frames in ID order")
	}
}

// TestBurstCloseWakesBlockedSender: Close releases a sender waiting for
// room, which then returns an error and queues nothing.
func TestBurstCloseWakesBlockedSender(t *testing.T) {
	g := wiretest.NewGateConn()
	w := NewBurstWriter(g)
	if err := w.Send(1, Tag{}, false, burstReq(1), false); err != nil {
		t.Fatal(err)
	}
	<-g.Entered
	last := fillQueue(t, w, 2)
	blocked := make(chan error, 1)
	go func() { blocked <- w.Send(uint64(last), Tag{}, false, burstReq(last), false) }()
	select {
	case err := <-blocked:
		t.Fatalf("a Send past the queue cap returned (%v) while the write was stuck", err)
	case <-time.After(20 * time.Millisecond):
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-blocked; err == nil {
		t.Fatal("a sender waiting for room returned nil after Close")
	}
	g.NoMoreWrites(t)
}

// TestBurstEncodeErrorKeepsFrameBoundary: a request that fails to encode
// mid-frame, on a buffer other frames are queued in, leaves nothing of
// itself behind — the conn sees only whole frames.
func TestBurstEncodeErrorKeepsFrameBoundary(t *testing.T) {
	bad := burstReq(0)
	bad.Faults = []adversary.FaultSpec{{Node: 1, Kind: adversary.KindLie}, {Node: 300, Kind: adversary.KindLie}}
	if _, err := AppendRequest(make([]byte, 0, 256), 99, bad); err == nil {
		t.Fatal("the bad request encodes")
	}
	g := wiretest.NewGateConn()
	w := NewBurstWriter(g)
	if err := w.Send(1, Tag{}, false, burstReq(1), false); err != nil {
		t.Fatal(err)
	}
	<-g.Entered
	if err := w.Send(2, Tag{}, false, burstReq(2), false); err != nil {
		t.Fatal(err)
	}
	if err := w.Send(99, Tag{}, false, bad, false); err == nil {
		t.Fatal("a mid-frame encode error was not returned")
	}
	if err := w.Send(3, Tag{}, false, burstReq(3), false); err != nil {
		t.Fatal(err)
	}
	g.Release <- nil
	<-g.Entered
	g.Release <- nil
	// Idle and alone: the failed encode must not write anything either.
	for !w.idleForTest() {
		runtime.Gosched()
	}
	if err := w.Send(98, Tag{}, true, bad, true); err == nil {
		t.Fatal("a mid-frame encode error was not returned on the idle path")
	}
	w.Close()
	g.NoMoreWrites(t)
	if got, want := bytes.Join(g.Writes(), nil), wantFrames(t, 1, 3); !bytes.Equal(got, want) {
		t.Fatalf("wire bytes after an encode error:\n got %x\nwant %x", got, want)
	}
}

// idleForTest reports whether nothing is queued or being written.
func (w *BurstWriter) idleForTest() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return !w.writing && len(w.buf) == 0
}

// TestDialCloseLeavesNoGoroutines: Close waits for the client's read and
// write loops, so 100 Dial/Close cycles leave the goroutine count where it
// started once the server has noticed each close.
func TestDialCloseLeavesNoGoroutines(t *testing.T) {
	srv, addr := startServer(t, service.Config{Shards: 1})
	defer srv.Shutdown(context.Background())
	base := runtime.NumGoroutine()
	ctx := context.Background()
	for i := 0; i < 100; i++ {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if r, err := c.Do(ctx, burstReq(i)); err != nil || r.Status != StatusOK {
				t.Fatalf("cycle %d: %v %v", i, err, r.Status)
			}
		}
		c.Close()
	}
	settleGoroutines(t, base)
}

// settleGoroutines waits up to 5 s for the goroutine count to return to base.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, baseline %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// countConn counts the Write calls that reach a connection.
type countConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// BenchmarkClientPipelined keeps 16 requests outstanding on one loopback
// connection to a server, like one serve_fast connection, and reports the
// conn writes per request: a hardware-independent count of how well the
// client's write side coalesces.
func BenchmarkClientPipelined(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := NewServer(ln, service.New(service.Config{}))
	go srv.Serve()
	defer srv.Shutdown(context.Background())
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	cc := &countConn{Conn: conn}
	c := NewClient(cc)
	defer c.Close()
	req := service.Request{N: 7, M: 1, U: 2, Value: 1}
	const depth = 16
	ring := make([]<-chan Result, depth)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N+depth; i++ {
		if i >= depth {
			if r, ok := <-ring[i%depth]; !ok || r.Status != StatusOK {
				b.Fatalf("request %d: %v", i-depth, r.Status)
			}
		}
		if i < b.N {
			if ring[i%depth], err = c.Send(req); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(cc.writes.Load())/float64(b.N), "writes/op")
}
