package wire

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"

	"degradable/internal/service"
)

// Result is one answered remote request.
type Result struct {
	// Status is the server's admission/execution classification.
	Status Status
	// Resp is populated when Status is StatusOK.
	Resp service.Response
	// Errmsg carries the server's error text for non-OK statuses.
	Errmsg string
	// Tag is the echoed routing tag and Tagged whether the response frame
	// carried one (responses to SendTagged requests do).
	Tag    Tag
	Tagged bool
}

// Client is a pipelining TCP client for the agreement service: many
// requests may be in flight on one connection; their frames go out in
// bursts through a BurstWriter, and a background reader demultiplexes
// responses by ID. Safe for concurrent use.
type Client struct {
	conn net.Conn
	w    *BurstWriter

	mu      sync.Mutex // guards pending, nextID, err
	pending map[uint64]chan Result
	nextID  uint64
	err     error // terminal read-loop error; set once

	readDone chan struct{}
}

// Dial connects to a serve daemon.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection and starts the reader.
func NewClient(conn net.Conn) *Client {
	c := &Client{
		conn:     conn,
		w:        NewBurstWriter(conn),
		pending:  make(map[uint64]chan Result),
		readDone: make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// readLoop demultiplexes response frames to their waiters until the
// connection fails or closes; every waiter is then failed with the cause
// (a failed write's error when one severed the connection), and the write
// loop is stopped.
func (c *Client) readLoop() {
	defer close(c.readDone)
	defer c.w.Close()
	br := bufio.NewReader(c.conn)
	var err error
	var frame []byte // reused across frames; DecodeResponse copies what it keeps
	for {
		var payload []byte
		payload, err = ReadFrameInto(br, frame)
		if err != nil {
			break
		}
		frame = payload
		id, tag, tagged, st, resp, errmsg, derr := DecodeAnyResponse(payload)
		if derr != nil {
			err = derr
			break
		}
		c.mu.Lock()
		ch, ok := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if ok {
			ch <- Result{Status: st, Resp: resp, Errmsg: errmsg, Tag: tag, Tagged: tagged}
		}
	}
	if werr := c.w.writeErr(); werr != nil {
		err = werr
	}
	c.mu.Lock()
	c.err = fmt.Errorf("wire: connection lost: %w", err)
	for id, ch := range c.pending {
		delete(c.pending, id)
		close(ch) // a closed channel reads the zero Result; Do maps it to c.err
	}
	c.mu.Unlock()
}

// Send submits one request and returns a channel carrying its Result. The
// channel is closed without a value if the connection dies first. A write
// error is connection-level: it closes the connection, so it arrives as
// that closed channel (Do returns "wire: connection lost: …"), or as the
// error of the next Send. Send itself fails only on an unencodable request
// or a connection already lost; it waits while the connection's write
// queue is full (a peer that stops reading holds senders back).
func (c *Client) Send(req service.Request) (<-chan Result, error) {
	return c.send(req, Tag{}, false)
}

// SendTagged is Send over a tagged frame: the request carries tag, and the
// server echoes it back on the response.
func (c *Client) SendTagged(req service.Request, tag Tag) (<-chan Result, error) {
	return c.send(req, tag, true)
}

func (c *Client) send(req service.Request, tag Tag, tagged bool) (<-chan Result, error) {
	ch := make(chan Result, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = ch
	idle := len(c.pending) == 1
	c.mu.Unlock()

	if err := c.w.Send(id, tag, tagged, req, idle); err != nil {
		c.forget(id)
		return nil, err
	}
	return ch, nil
}

// forget abandons one in-flight ID whose frame was never queued.
func (c *Client) forget(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// Do submits one request and waits for its result.
func (c *Client) Do(ctx context.Context, req service.Request) (Result, error) {
	ch, err := c.Send(req)
	if err != nil {
		return Result{}, err
	}
	select {
	case r, ok := <-ch:
		if !ok {
			c.mu.Lock()
			err := c.err
			c.mu.Unlock()
			return Result{}, err
		}
		return r, nil
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
}

// Close severs the connection and waits for the read and write loops to
// exit; in-flight requests fail. It returns the connection's close error,
// nil when the connection was already severed by a failed write or by the
// read loop's exit.
func (c *Client) Close() error {
	err := c.w.closeConn()
	<-c.readDone
	return err
}
