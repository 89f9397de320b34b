package wire

import (
	"bufio"
	"context"
	"errors"
	"net"
	"sync"
	"time"

	"degradable/internal/adversary"
	"degradable/internal/service"
)

// shutdownGrace is how long a connection's reader keeps draining
// already-sent frames after Shutdown begins. Requests read within the
// grace window are executed and answered; afterwards the read deadline
// trips and the writer flushes what remains.
const shutdownGrace = 250 * time.Millisecond

// Timeouts configures per-connection deadlines. Zero values disable the
// corresponding deadline; the zero Timeouts preserves the historical
// behaviour (no deadline until shutdown's grace window).
type Timeouts struct {
	// Read bounds reading one frame's payload once its length prefix has
	// arrived: a peer that starts a frame must finish it promptly.
	Read time.Duration
	// Write bounds each response flush: a peer that stops draining its
	// socket is severed instead of wedging the writer goroutine.
	Write time.Duration
	// Idle bounds the quiet gap waiting for the next frame to begin; an
	// idle connection past it is closed.
	Idle time.Duration
}

// connDeadline serializes read-deadline updates on one connection so the
// per-frame idle/read deadlines never extend past an armed shutdown grace
// window (the watcher and the read loop race otherwise).
type connDeadline struct {
	mu    sync.Mutex
	conn  net.Conn
	grace bool
}

// arm sets a pre-frame deadline of d, unless shutdown grace is armed or d
// is zero.
func (c *connDeadline) arm(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.grace {
		return
	}
	c.conn.SetReadDeadline(time.Now().Add(d))
}

// shutdown arms the shutdown grace deadline; later arm calls are no-ops.
func (c *connDeadline) shutdown(grace time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.grace = true
	c.conn.SetReadDeadline(time.Now().Add(grace))
}

// pendingResp is one in-flight request on a connection, queued in arrival
// order so the writer answers FIFO (shards are FIFO too, so head-of-line
// waits are short).
type pendingResp struct {
	id uint64
	// tag is echoed back on the response when the request was tagged.
	tag    Tag
	tagged bool
	// slot carries the request's submission handle. When err is nil the
	// writer awaits the slot's outcome; either way the writer recycles the
	// slot once the response has been encoded.
	slot *service.Slot
	err  error
}

// Server exposes a service.Service over TCP: one reader and one writer
// goroutine per connection, length-prefixed frames.
type Server struct {
	svc      *service.Service
	ln       net.Listener
	timeouts Timeouts

	quit   chan struct{}
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	active sync.WaitGroup
	closed bool
}

// NewServer wraps an already-listening socket. The server owns both the
// listener and the service: Shutdown closes the two in order.
func NewServer(ln net.Listener, svc *service.Service) *Server {
	return &Server{
		svc:   svc,
		ln:    ln,
		quit:  make(chan struct{}),
		conns: make(map[net.Conn]struct{}),
	}
}

// SetTimeouts configures the per-connection deadlines. It must be called
// before Serve; connections accepted afterwards use the new values.
func (s *Server) SetTimeouts(t Timeouts) { s.timeouts = t }

// Service returns the underlying runtime (for stats).
func (s *Server) Service() *service.Service { return s.svc }

// Addr returns the listener address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Serve accepts connections until Shutdown. It always returns a non-nil
// error; after Shutdown the error is net.ErrClosed.
func (s *Server) Serve() error {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		s.conns[conn] = struct{}{}
		s.active.Add(1)
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// handle runs one connection: the reader parses frames and submits them,
// handing (id, completion) pairs to the writer in arrival order; the writer
// awaits each completion and answers, flushing before it waits on one that
// is not decided yet. On server shutdown the reader stops admitting, the
// writer flushes every in-flight response, and only then does the
// connection close — no admitted request goes unanswered. A failed write
// ends the connection: the writer closes it and the reader stops.
func (s *Server) handle(conn net.Conn) {
	defer s.active.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()

	cfg := s.svc.Config()
	timeouts := s.timeouts
	pend := make(chan pendingResp, cfg.Shards*cfg.QueueDepth+1)
	// free recycles submission slots between the writer (which releases a
	// slot once its response is encoded) and the reader (which prefers a
	// recycled slot over allocating). Steady state holds a handful of slots
	// — one per pipelined in-flight request — and the read-submit-respond
	// loop stops allocating entirely.
	free := make(chan *service.Slot, cfg.Shards*cfg.QueueDepth+1)
	// writerGone closes when the writer exits. After a failed write that is
	// before pend is closed: the writer has closed the conn, and the reader
	// stops instead of filling a queue no one drains.
	writerGone := make(chan struct{})
	go func() { // writer
		defer close(writerGone)
		defer conn.Close()
		var buf []byte
		bw := bufio.NewWriter(conn)
		flush := func() error {
			if timeouts.Write > 0 {
				conn.SetWriteDeadline(time.Now().Add(timeouts.Write))
			}
			return bw.Flush()
		}
		for p := range pend {
			var out service.Outcome
			if p.err != nil {
				out.Err = p.err
			} else {
				select {
				case out = <-p.slot.Outcome():
				default:
					// Not decided yet: send what is encoded before waiting,
					// so a finished response never waits on a slower one.
					if err := flush(); err != nil {
						return
					}
					out = <-p.slot.Outcome()
				}
			}
			buf = buf[:0]
			var err error
			st, errmsg := StatusOK, ""
			if out.Err != nil {
				st, errmsg = errStatus(out.Err), out.Err.Error()
			}
			if p.tagged {
				buf, err = AppendTaggedResponse(buf, p.id, p.tag, st, out.Resp, errmsg)
			} else {
				buf, err = AppendResponse(buf, p.id, st, out.Resp, errmsg)
			}
			// The response is encoded (out.Resp.Decisions aliases the slot's
			// task buffer, so encode-before-recycle is load-bearing); the slot
			// is free for the reader's next frame.
			select {
			case free <- p.slot:
			default:
			}
			if err != nil {
				continue // unencodable response; drop rather than desync the stream
			}
			if _, err := bw.Write(buf); err != nil {
				return
			}
			if len(pend) == 0 {
				if err := flush(); err != nil {
					return
				}
			}
		}
		flush()
	}()

	// On shutdown, bound the reader with a grace deadline rather than
	// severing it: frames the client already sent are still in the socket
	// buffer, and they must be read, admitted, and answered before the
	// connection closes — that is the no-unanswered-request contract. The
	// grace deadline wins over the per-frame idle/read deadlines: once
	// armed, they stop being refreshed.
	dl := &connDeadline{conn: conn}
	stopWatch := make(chan struct{})
	go func() {
		select {
		case <-s.quit:
			dl.shutdown(shutdownGrace)
		case <-stopWatch:
		}
	}()

	br := bufio.NewReader(conn)
	var frame []byte                   // reused across frames
	var fscratch []adversary.FaultSpec // reused fault decode buffer; Slot.Submit copies
read:
	for {
		// Idle bounds the wait for the next frame to begin; once its length
		// prefix has arrived, Read bounds the payload.
		dl.arm(timeouts.Idle)
		n, grown, err := readPrefix(br, frame)
		if err != nil {
			frame = grown
			break // EOF, idle timeout, malformed prefix, or the shutdown deadline
		}
		dl.arm(timeouts.Read)
		payload, err := readPayload(br, grown, n)
		if err != nil {
			frame = grown
			break
		}
		frame = payload
		id, tag, tagged, req, fb, err := DecodeAnyRequestInto(payload, fscratch)
		fscratch = fb
		if err != nil {
			break // framing is lost; the deferred close severs the conn
		}
		var sl *service.Slot
		select {
		case sl = <-free:
		default:
			sl = s.svc.NewSlot()
		}
		err = sl.Submit(req)
		select {
		case pend <- pendingResp{id: id, tag: tag, tagged: tagged, slot: sl, err: err}:
		case <-writerGone:
			break read // the writer failed: nothing read now can be answered
		}
	}
	close(stopWatch)
	close(pend)
	<-writerGone
}

// errStatus maps an admission or execution error to its wire status.
func errStatus(err error) Status {
	switch {
	case errors.Is(err, service.ErrOverloaded):
		return StatusOverloaded
	case errors.Is(err, service.ErrClosed):
		return StatusClosed
	case errors.Is(err, service.ErrInvalid):
		return StatusInvalid
	case errors.Is(err, service.ErrQuota):
		return StatusQuota
	default:
		return StatusError
	}
}

// Shutdown gracefully stops the server: the listener closes, connections
// stop reading, every in-flight request is answered and flushed, and the
// service drains. ctx bounds the wait; on expiry remaining connections are
// severed (their in-flight responses may be lost).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()

	s.ln.Close()
	close(s.quit)

	finished := make(chan struct{})
	go func() {
		s.active.Wait()
		close(finished)
	}()
	var err error
	select {
	case <-finished:
	case <-ctx.Done():
		err = ctx.Err()
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		<-finished
	}
	s.svc.Close()
	return err
}
