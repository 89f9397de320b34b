// Package wiretest holds test doubles for the wire layer's connections,
// shared by the tests of every package that writes through one.
package wiretest

import (
	"net"
	"sync"
	"testing"
)

// GateConn is a net.Conn whose Write blocks until the test releases it,
// returning the released error. Every Write's bytes are recorded as it
// starts; Read blocks until Close.
type GateConn struct {
	net.Conn // nil: only Read, Write and Close are called

	Entered chan struct{} // one value per Write, sent as it starts
	Release chan error    // each value releases one Write with that error

	closed chan struct{}
	once   sync.Once

	mu     sync.Mutex
	writes [][]byte
}

// NewGateConn returns an open GateConn with no Write in progress.
func NewGateConn() *GateConn {
	return &GateConn{
		Entered: make(chan struct{}, 64), // above any test's write count, so Write never blocks on it
		Release: make(chan error),
		closed:  make(chan struct{}),
	}
}

func (g *GateConn) Write(p []byte) (int, error) {
	g.mu.Lock()
	g.writes = append(g.writes, append([]byte(nil), p...))
	g.mu.Unlock()
	g.Entered <- struct{}{}
	select {
	case err := <-g.Release:
		if err != nil {
			return 0, err
		}
		return len(p), nil
	case <-g.closed:
		return 0, net.ErrClosed
	}
}

func (g *GateConn) Read([]byte) (int, error) {
	<-g.closed
	return 0, net.ErrClosed
}

func (g *GateConn) Close() error {
	g.once.Do(func() { close(g.closed) })
	return nil
}

// Writes returns every Write's bytes so far.
func (g *GateConn) Writes() [][]byte {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([][]byte(nil), g.writes...)
}

// NoMoreWrites fails the test if a Write started beyond those awaited on
// Entered.
func (g *GateConn) NoMoreWrites(t testing.TB) {
	t.Helper()
	select {
	case <-g.Entered:
		t.Fatalf("an extra write reached the conn; writes: %d", len(g.Writes()))
	default:
	}
}
