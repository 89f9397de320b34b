package degradable_test

import (
	"context"
	"errors"
	"net"
	"testing"

	degradable "degradable"
	"degradable/internal/wire"
)

// TestServeFacade exercises the public serving surface end-to-end:
// NewService, NewServer, Dial, a facade Fault armed on a Request as it
// stands, and the error re-exports.
func TestServeFacade(t *testing.T) {
	svc := degradable.NewService(degradable.ServiceConfig{Shards: 1, SpecSample: 1})

	// In-process path first.
	resp, err := svc.Do(context.Background(), degradable.Request{
		N: 5, M: 1, U: 2, Value: 42,
		Faults: []degradable.Fault{{Node: 3, Kind: degradable.FaultLie, Value: 99}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Decisions[1]; got != 42 {
		t.Fatalf("node 1 decided %s, want 42", got)
	}
	if !resp.Checked || !resp.OK {
		t.Fatalf("spec sample: Checked=%v OK=%v reason=%q", resp.Checked, resp.OK, resp.Reason)
	}

	// Same service over TCP.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := degradable.NewServer(ln, svc)
	go srv.Serve()
	c, err := degradable.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Do(context.Background(), degradable.Request{N: 5, M: 1, U: 2, Value: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != wire.StatusOK || res.Resp.Decisions[2] != 7 {
		t.Fatalf("remote: status=%v decisions=%v", res.Status, res.Resp.Decisions)
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(degradable.Request{N: 5, M: 1, U: 2, Value: 1}); !errors.Is(err, degradable.ErrServiceClosed) {
		t.Fatalf("post-shutdown submit: %v", err)
	}
	if st := svc.Stats(); st.SpecViolations != 0 || st.Completed < 2 {
		t.Fatalf("stats: %+v", st)
	}
}
