package proc

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain diverts re-executed copies of this test binary into the roles
// the tests below spawn.
func TestMain(m *testing.M) {
	switch Role() {
	case "":
		os.Exit(m.Run())
	case "echo":
		// Print the role, then copy stdin lines back until EOF.
		fmt.Println(Role())
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			fmt.Println(sc.Text())
		}
		os.Exit(0)
	case "term":
		// Announce readiness, then exit 3 on SIGTERM.
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGTERM)
		fmt.Println("ready")
		<-sig
		os.Exit(3)
	default:
		os.Exit(0)
	}
}

func spawnSelf(t *testing.T, role string) *Proc {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	p, err := Spawn(ctx, []string{self}, role)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Kill)
	return p
}

// TestRoleReachesChild: the child sees the role it was spawned in, and a
// JSON line sent to its stdin comes back out of its stdout.
func TestRoleReachesChild(t *testing.T) {
	p := spawnSelf(t, "echo")
	line, err := p.ReadLine(StartupWait)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(line)); got != "echo" {
		t.Fatalf("child role = %q, want %q", got, "echo")
	}
	if err := p.Send(map[string]int{"x": 1}); err != nil {
		t.Fatal(err)
	}
	if line, err = p.ReadLine(StartupWait); err != nil || string(line) != "{\"x\":1}\n" {
		t.Fatalf("echoed line = %q, %v", line, err)
	}
	if err := p.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
}

// TestTerminateReturnsExitStatus: Terminate delivers SIGTERM and returns
// the status the child chose to exit with.
func TestTerminateReturnsExitStatus(t *testing.T) {
	p := spawnSelf(t, "term")
	if _, err := p.ReadLine(StartupWait); err != nil {
		t.Fatal(err)
	}
	var ee *exec.ExitError
	if err := p.Terminate(); !errors.As(err, &ee) || ee.ExitCode() != 3 {
		t.Fatalf("terminate = %v, want exit status 3", err)
	}
}

// TestKillAfterExit: Kill on a reaped child is a no-op, and Wait keeps
// returning the first exit status.
func TestKillAfterExit(t *testing.T) {
	p := spawnSelf(t, "exit")
	if err := p.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	p.Kill()
	if err := p.Wait(); err != nil {
		t.Fatalf("second wait: %v", err)
	}
}

// TestKillDuringRead: Kill from another goroutine, as the cluster's crash
// grace timer does, ends a blocked read, and every Wait returns the one exit
// status.
func TestKillDuringRead(t *testing.T) {
	p := spawnSelf(t, "term")
	if _, err := p.ReadLine(StartupWait); err != nil {
		t.Fatal(err)
	}
	killed := make(chan error, 1)
	go func() {
		p.Kill()
		killed <- p.Wait()
	}()
	if line, err := p.ReadLine(0); err == nil {
		t.Errorf("read after kill returned %q", line)
	}
	err := p.Wait()
	if err == nil {
		t.Error("killed child exited cleanly")
	}
	if other := <-killed; other != err {
		t.Errorf("waits disagree: %v and %v", other, err)
	}
}

// TestWaitClosesPipes: after Wait, both ends the parent held are closed.
func TestWaitClosesPipes(t *testing.T) {
	p := spawnSelf(t, "exit")
	p.Wait()
	if err := p.Send("late"); err == nil {
		t.Error("send after wait succeeded")
	}
	if _, err := p.outPipe.Read(make([]byte, 1)); !errors.Is(err, os.ErrClosed) {
		t.Errorf("stdout read after wait = %v, want %v", err, os.ErrClosed)
	}
}

// TestReadLineTimesOut: a child that prints nothing and stays alive fails
// a bounded read at its deadline instead of blocking the caller until the
// outer context kills the child.
func TestReadLineTimesOut(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	p, err := Spawn(ctx, []string{"sleep", "30"}, "")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Kill()
	const wait = 200 * time.Millisecond
	start := time.Now()
	if _, err := p.ReadLine(wait); err == nil {
		t.Fatal("ReadLine succeeded on a silent process")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("ReadLine blocked %v on a silent process, want ~%v", elapsed, wait)
	}
}
