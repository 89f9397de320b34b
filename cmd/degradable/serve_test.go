package main

import (
	"bytes"
	"context"
	"flag"
	"io"
	"net/http"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"degradable/internal/fleet"
	"degradable/internal/service"
	"degradable/internal/wire"
)

// syncBuf is a mutex-guarded buffer for tests that read the daemon's output
// while it is still running.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// runDaemon parses args over a daemon subcommand's flags and runs its
// action, as dispatch does, with ready receiving the bound address.
func runDaemon(flags func(*flag.FlagSet, chan<- string) func(io.Writer) error, args []string, out io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("daemon", flag.ContinueOnError)
	fs.SetOutput(out)
	act := flags(fs, ready)
	if err := fs.Parse(args); err != nil {
		return err
	}
	return act(out)
}

// TestServeSignalShutdown boots the daemon on an ephemeral port, serves a
// request over real TCP, then delivers SIGTERM and checks the graceful
// path: the action returns nil and the final counters are printed.
func TestServeSignalShutdown(t *testing.T) {
	var out bytes.Buffer
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- runDaemon(fleet.ServeFlags, []string{"-addr", "127.0.0.1:0", "-shards", "2"}, &out, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never came up")
	}

	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Do(context.Background(), service.Request{N: 5, M: 1, U: 2, Value: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != wire.StatusOK || len(res.Resp.Decisions) != 5 {
		t.Fatalf("status=%v decisions=%d", res.Status, len(res.Resp.Decisions))
	}

	// The daemon's signal.NotifyContext owns SIGTERM here, so signalling
	// our own process exercises the real shutdown path.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not shut down on SIGTERM")
	}
	if !strings.Contains(out.String(), "completed=1") {
		t.Errorf("final counters missing from output:\n%s", out.String())
	}
}

// TestServeBadFlags checks flag errors surface instead of hanging.
func TestServeBadFlags(t *testing.T) {
	if _, err := runSub(t, "serve", "-addr", "not-an-address"); err == nil {
		t.Fatal("bad listen address accepted")
	}
	if _, err := runSub(t, "serve", "-addr", "127.0.0.1:0", "-pprof", "not-an-address"); err == nil {
		t.Fatal("bad pprof address accepted")
	}
}

// TestServePprof boots the daemon with -pprof and checks the debug
// listener answers both the profiling endpoint and the telemetry surface
// (/metrics, /debug/vars) on its own port.
func TestServePprof(t *testing.T) {
	var out syncBuf
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- runDaemon(fleet.ServeFlags, []string{"-addr", "127.0.0.1:0", "-shards", "1", "-pprof", "127.0.0.1:0"}, &out, ready)
	}()
	select {
	case <-ready:
	case err := <-done:
		t.Fatalf("daemon exited early: %v\n%s", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never came up")
	}
	// The debug line is printed before ready is signalled.
	line := out.String()
	i := strings.Index(line, "debug on http://")
	if i < 0 {
		t.Fatalf("debug address not announced:\n%s", line)
	}
	url := line[i+len("debug on "):]
	url = strings.TrimSpace(url[:strings.IndexAny(url, " \n")])
	resp, err := http.Get(url + "cmdline")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("pprof endpoint: status %d, %d body bytes", resp.StatusCode, len(body))
	}
	base := strings.TrimSuffix(url, "/debug/pprof/")
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "service_accepted_total") {
		t.Fatalf("/metrics: status %d, body:\n%s", resp.StatusCode, body)
	}
	resp, err = http.Get(base + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "service_accepted_total") {
		t.Fatalf("/debug/vars: status %d, body:\n%s", resp.StatusCode, body)
	}
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}
