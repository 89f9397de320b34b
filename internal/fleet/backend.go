package fleet

import (
	"bufio"
	"context"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"degradable/internal/obs"
	"degradable/internal/service"
	"degradable/internal/wire"
)

// Redial pacing, mirroring the cluster rejoin machinery: exponential
// backoff with full jitter in [backoff/2, backoff*3/2), so a backend
// restart never synchronizes the router's dial attempts into a thundering
// herd. Unlike a cluster node's bounded rejoin, the router redials
// forever — a backend may come back minutes later and should be readopted
// without operator action.
const (
	dialTimeout    = 2 * time.Second
	dialBackoff    = 25 * time.Millisecond
	dialBackoffMax = 1 * time.Second
)

// call is one client request in flight to a backend: enough to route the
// response back to the exact client connection and frame ID it came from,
// and to attribute the router→backend latency tier.
type call struct {
	cc       *clientConn
	clientID uint64
	tag      wire.Tag // the client's tag, echoed on the client-side response
	tagged   bool     // whether the client frame was tagged
	start    time.Time
}

// beConn is one pipelined connection to a backend, with its own request-ID
// space and pending map. Many client connections' requests interleave on
// it, their frames coalesced into bursts by its BurstWriter; responses are
// demultiplexed by ID back to their calls.
type beConn struct {
	b    *backend
	conn net.Conn
	w    *wire.BurstWriter

	mu      sync.Mutex
	pending map[uint64]*call
	nextID  uint64
	dead    bool
}

// backend is one degradable serve daemon behind the router: a small pool of
// pipelined connections, a health bit, an in-flight gauge for bounded-load
// placement, and a maintenance goroutine that keeps the pool dialed.
type backend struct {
	rt   *Router
	addr string

	healthy  atomic.Bool
	inflight atomic.Int64

	mu       sync.Mutex
	conns    []*beConn
	next     int // round-robin cursor over conns
	draining bool
	closed   bool

	kick  chan struct{}  // nudges maintain after a conn death or state change
	done  chan struct{}  // closed when maintain exits
	loops sync.WaitGroup // one per pooled conn: its read loop, which stops its write loop
}

func newBackend(rt *Router, addr string) *backend {
	b := &backend{
		rt:   rt,
		addr: addr,
		kick: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	go b.maintain()
	return b
}

// nudge wakes maintain without blocking.
func (b *backend) nudge() {
	select {
	case b.kick <- struct{}{}:
	default:
	}
}

// stopped reports whether the backend should stop being maintained.
func (b *backend) stopped() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.closed || b.draining
}

func (b *backend) liveConns() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.conns)
}

// maintain keeps ConnsPerBackend live connections dialed, with jittered
// exponential backoff on failure, until the backend is drained/closed or
// the router shuts down.
func (b *backend) maintain() {
	defer close(b.done)
	backoff := dialBackoff
	for {
		if b.stopped() {
			return
		}
		select {
		case <-b.rt.quit:
			return
		default:
		}
		if b.liveConns() >= b.rt.cfg.ConnsPerBackend {
			b.healthy.Store(true)
			backoff = dialBackoff
			select {
			case <-b.kick:
			case <-b.rt.quit:
				return
			}
			continue
		}
		conn, err := net.DialTimeout("tcp", b.addr, dialTimeout)
		if err != nil {
			if b.liveConns() == 0 {
				b.healthy.Store(false)
			}
			b.rt.stats.Inc(statRedial)
			jittered := backoff/2 + time.Duration(rand.Int63n(int64(backoff)))
			select {
			case <-time.After(jittered):
			case <-b.rt.quit:
				return
			}
			if backoff *= 2; backoff > dialBackoffMax {
				backoff = dialBackoffMax
			}
			continue
		}
		b.mu.Lock()
		if b.closed || b.draining {
			b.mu.Unlock()
			conn.Close()
			return
		}
		bc := &beConn{b: b, conn: conn, w: wire.NewBurstWriter(conn), pending: make(map[uint64]*call)}
		b.conns = append(b.conns, bc)
		b.loops.Add(1)
		b.mu.Unlock()
		b.healthy.Store(true)
		backoff = dialBackoff
		go func() {
			defer b.loops.Done()
			bc.readLoop()
		}()
	}
}

// send forwards one request to the backend on a round-robin pooled
// connection, tagging the frame with the client's tenant (so the daemon
// accounts sheds per tenant) and the client connection's ID as the
// correlation value (so the response can be proven to belong to that
// connection). The caller has already bumped inflight.
func (b *backend) send(c *call, req service.Request) error {
	b.mu.Lock()
	if len(b.conns) == 0 || b.draining || b.closed {
		b.mu.Unlock()
		return errUnavailable
	}
	bc := b.conns[b.next%len(b.conns)]
	b.next++
	b.mu.Unlock()

	bc.mu.Lock()
	if bc.dead {
		bc.mu.Unlock()
		return errUnavailable
	}
	bc.nextID++
	id := bc.nextID
	bc.pending[id] = c
	idle := len(bc.pending) == 1
	bc.mu.Unlock()

	// A write that fails after Send returns closes the conn, and readLoop's
	// fail() answers the call. An error here (an unencodable request, or a
	// write error already recorded) races the readLoop noticing the same
	// conn death: fail() may have drained pending and completed this call
	// already. Only report the error (and let the caller complete the call)
	// if the call was still ours to forget — otherwise completing it twice
	// would double-Done the client conn's WaitGroup.
	if err := bc.w.Send(id, wire.Tag{Tenant: req.Tenant, Corr: c.cc.id}, true, req, idle); err != nil {
		if !bc.forget(id) {
			return nil
		}
		return err
	}
	return nil
}

// forget withdraws a registered call before it was answered, reporting
// whether it was still pending (false means fail() already completed it).
func (bc *beConn) forget(id uint64) bool {
	bc.mu.Lock()
	_, ok := bc.pending[id]
	delete(bc.pending, id)
	bc.mu.Unlock()
	return ok
}

// readLoop demultiplexes backend responses to their calls until the
// connection dies, then fails what was pending on it.
func (bc *beConn) readLoop() {
	br := bufio.NewReader(bc.conn)
	var frame []byte
	for {
		payload, err := wire.ReadFrameInto(br, frame)
		if err != nil {
			break
		}
		frame = payload
		id, tag, tagged, st, resp, errmsg, derr := wire.DecodeAnyResponse(payload)
		if derr != nil {
			break
		}
		bc.mu.Lock()
		c := bc.pending[id]
		delete(bc.pending, id)
		bc.mu.Unlock()
		if c == nil {
			continue
		}
		if tagged && tag.Corr != c.cc.id {
			// The echoed correlation must name the client conn this call
			// belongs to; anything else means demux is broken.
			bc.b.rt.stats.Inc(statCorrMismatch)
		}
		bc.b.complete(c, st, resp, errmsg)
	}
	bc.fail()
}

// fail removes the connection from the pool and answers every call that
// was pending on it with an explicit error status.
func (bc *beConn) fail() {
	bc.mu.Lock()
	if bc.dead {
		bc.mu.Unlock()
		return
	}
	bc.dead = true
	orphans := make([]*call, 0, len(bc.pending))
	for id, c := range bc.pending {
		delete(bc.pending, id)
		orphans = append(orphans, c)
	}
	bc.mu.Unlock()
	bc.w.Close()

	b := bc.b
	b.mu.Lock()
	kept := b.conns[:0]
	for _, c := range b.conns {
		if c != bc {
			kept = append(kept, c)
		}
	}
	b.conns = kept
	empty := len(b.conns) == 0
	b.mu.Unlock()
	if empty {
		b.healthy.Store(false)
	}
	if len(orphans) > 0 {
		b.rt.stats.Add(statBackendLost, uint64(len(orphans)))
	}
	for _, c := range orphans {
		b.complete(c, wire.StatusError, service.Response{}, "fleet: backend connection lost")
	}
	b.nudge()
}

// complete finishes one call: observes the router→backend latency tier,
// releases the in-flight slot, and hands the response to the client
// connection's writer.
func (b *backend) complete(c *call, st wire.Status, resp service.Response, errmsg string) {
	b.rt.beLatency.Observe(time.Since(c.start))
	b.inflight.Add(-1)
	if st == wire.StatusOK {
		b.rt.stats.Inc(statAnswered)
		if resp.Checked && b.rt.cfg.Sink != nil {
			b.rt.cfg.Sink.Emit(obs.VerdictEvent(resp.Condition, resp.OK, resp.Graceful))
		}
	} else {
		b.rt.stats.Inc(statBackendErr)
	}
	c.cc.finish(outFrame{id: c.clientID, tag: c.tag, tagged: c.tagged, st: st, resp: resp, errmsg: errmsg})
}

// drain waits for the backend's in-flight calls to finish (the router has
// already stopped placing new work on it), then closes its connections.
// ctx bounds the wait; on expiry remaining calls are severed by the close
// and answered through the readLoop failure path.
func (b *backend) drain(ctx context.Context) error {
	b.mu.Lock()
	b.draining = true
	b.mu.Unlock()
	b.healthy.Store(false)
	b.nudge()

	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	var err error
wait:
	for b.inflight.Load() > 0 {
		select {
		case <-tick.C:
		case <-ctx.Done():
			err = ctx.Err()
			break wait
		}
	}
	b.close()
	return err
}

// close severs every connection, stops maintenance and waits for every
// connection's read and write loops to exit.
func (b *backend) close() {
	b.mu.Lock()
	b.closed = true
	conns := append([]*beConn(nil), b.conns...)
	b.mu.Unlock()
	b.healthy.Store(false)
	b.nudge()
	for _, bc := range conns {
		bc.conn.Close() // readLoop fails pending and removes the conn
	}
	<-b.done
	b.loops.Wait()
}
