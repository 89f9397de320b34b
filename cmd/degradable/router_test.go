package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"syscall"
	"testing"
	"time"

	"degradable/internal/fleet"
	"degradable/internal/service"
	"degradable/internal/wire"
)

// startDaemon boots an in-process serve daemon for the router to front.
func startDaemon(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Config{Shards: 1, SpecSample: 1})
	srv := wire.NewServer(ln, svc)
	go srv.Serve()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return ln.Addr().String()
}

// TestRouterBadFlags checks configuration errors surface instead of
// hanging: missing backends, malformed quota, bad listen address.
func TestRouterBadFlags(t *testing.T) {
	if _, err := runSub(t, "router", "-addr", "127.0.0.1:0"); err == nil {
		t.Fatal("missing -backends accepted")
	}
	if _, err := runSub(t, "router", "-addr", "127.0.0.1:0", "-backends", "x:1", "-quota", "7:-1"); err == nil {
		t.Fatal("negative quota rate accepted")
	}
	if _, err := runSub(t, "router", "-addr", "not-an-address", "-backends", "x:1"); err == nil {
		t.Fatal("bad listen address accepted")
	}
}

// TestRouterMetricsScrape boots the router with -pprof in front of a real
// daemon, drives one routed request and one quota shed through it, then
// scrapes /metrics and checks the fleet surface is exposed: the per-backend
// health gauge, the per-tenant shed counter family, and the routing
// counters. SIGTERM then exercises the graceful path.
func TestRouterMetricsScrape(t *testing.T) {
	backend := startDaemon(t)
	var out syncBuf
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- runDaemon(fleet.RouterFlags, []string{
			"-addr", "127.0.0.1:0",
			"-backends", backend,
			"-pprof", "127.0.0.1:0",
			"-quota", "9:0.001:1",
		}, &out, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("router exited early: %v\n%s", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatal("router never came up")
	}

	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// One routed request (tenant 0, unlimited)...
	res, err := c.Do(context.Background(), service.Request{N: 5, M: 1, U: 2, Value: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != wire.StatusOK || len(res.Resp.Decisions) != 5 {
		t.Fatalf("status=%v decisions=%d", res.Status, len(res.Resp.Decisions))
	}
	// ...then tenant 9's one-token bucket: first admitted, second shed.
	for i := 0; i < 2; i++ {
		p, err := c.SendTagged(service.Request{N: 5, M: 1, U: 2, Value: 3, Tenant: 9}, wire.Tag{Tenant: 9})
		if err != nil {
			t.Fatal(err)
		}
		r, err := await(p)
		if err != nil {
			t.Fatal(err)
		}
		want := wire.StatusOK
		if i == 1 {
			want = wire.StatusQuota
		}
		if r.Status != want {
			t.Fatalf("tenant-9 request %d: status=%v want %v", i, r.Status, want)
		}
	}

	debug := debugAddr(t, out.String())
	body := scrape(t, "http://"+debug+"/metrics")
	for _, want := range []string{
		fmt.Sprintf("fleet_backend_healthy{backend=%q} 1", backend),
		`fleet_admission_shed_total{tenant="9"} 1`,
		"fleet_routed_total 2",
		"fleet_answered_total 2",
		"fleet_shed_quota_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	if !strings.Contains(scrape(t, "http://"+debug+"/debug/vars"), `"fleet_backend_latency"`) {
		t.Error("/debug/vars missing the backend latency histogram")
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("router did not shut down on SIGTERM")
	}
	if !strings.Contains(out.String(), "routed=2 answered=2 shed_quota=1") {
		t.Errorf("final counters missing from output:\n%s", out.String())
	}
}

// await resolves a pending wire call with a test-bounded wait.
func await(ch <-chan wire.Result) (wire.Result, error) {
	select {
	case r := <-ch:
		return r, nil
	case <-time.After(10 * time.Second):
		return wire.Result{}, errors.New("call timed out")
	}
}

// debugAddr extracts the debug listener address from the router's startup
// output.
func debugAddr(t *testing.T, output string) string {
	t.Helper()
	_, after, found := strings.Cut(output, "debug on http://")
	if !found {
		t.Fatalf("no debug line in output:\n%s", output)
	}
	i := strings.IndexByte(after, '/')
	if i <= 0 {
		t.Fatalf("malformed debug line in output:\n%s", output)
	}
	return after[:i]
}

// scrape GETs a debug endpoint and returns its body.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
