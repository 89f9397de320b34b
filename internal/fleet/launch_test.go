package fleet

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"degradable/internal/obs"
	"degradable/internal/proc"
	"degradable/internal/service"
	"degradable/internal/wire"
)

// TestMain diverts re-executed copies of this test binary into the fleet
// roles, so TestLaunchFleet runs the shipped serve and router entry points
// as real processes.
func TestMain(m *testing.M) {
	var flags func(*flag.FlagSet, chan<- string) func(io.Writer) error
	switch proc.Role() {
	case "":
		os.Exit(m.Run())
	case "serve":
		flags = ServeFlags
	case "router":
		flags = RouterFlags
	}
	err := fmt.Errorf("unknown role %q", proc.Role())
	if flags != nil {
		fs := flag.NewFlagSet(proc.Role(), flag.ContinueOnError)
		act := flags(fs, nil)
		if err = fs.Parse(os.Args[1:]); err == nil {
			err = act(os.Stdout)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, proc.Role()+":", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// member is one spawned fleet process and the addresses it announced.
type member struct {
	*proc.Proc
	addr  string // wire listen address
	debug string // debug/metrics address ("" if it has none)
}

// spawnMember re-execs this binary in role with args and reads its startup
// lines (an optional "debug on http://ADDR/" line, then "listening on
// ADDR"), then drains the rest of its output.
func spawnMember(t *testing.T, ctx context.Context, role string, args ...string) *member {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	p, err := proc.Spawn(ctx, append([]string{self, "-addr", "127.0.0.1:0"}, args...), role)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Kill)
	mb := &member{Proc: p}
	for mb.addr == "" {
		line, err := p.ReadLine(proc.StartupWait)
		if err != nil {
			t.Fatalf("%s startup: %v", role, err)
		}
		if _, after, ok := strings.Cut(string(line), "debug on http://"); ok {
			mb.debug, _, _ = strings.Cut(after, "/")
		} else if _, after, ok := strings.Cut(string(line), "listening on "); ok {
			mb.addr, _, _ = strings.Cut(strings.TrimSpace(after), " ")
		}
	}
	p.Drain()
	return mb
}

// scrape fetches a member's /debug/vars JSON snapshot.
func (mb *member) scrape() (obs.Snapshot, error) {
	var snap obs.Snapshot
	resp, err := http.Get("http://" + mb.debug + "/debug/vars")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("scrape: %s", resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	return snap, err
}

// TestLaunchFleet spawns a real 2-daemon fleet behind a router (process
// per member, re-exec'd from this binary into ServeFlags and RouterFlags),
// routes requests through it over TCP, scrapes the router's telemetry,
// and stops everything. The admission story is the gate: the capped
// tenant sheds with resource_exhausted, and the uncapped tenant never
// sheds, even in a pipelined burst.
func TestLaunchFleet(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	daemons := []*member{
		spawnMember(t, ctx, "serve", "-shards", "1"),
		spawnMember(t, ctx, "serve", "-shards", "1"),
	}
	router := spawnMember(t, ctx, "router",
		"-backends", daemons[0].addr+","+daemons[1].addr,
		"-pprof", "127.0.0.1:0",
		"-quota", "9:0.001:1")

	c, err := wire.Dial(router.addr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Do(ctx, service.Request{N: 5, M: 1, U: 2, Value: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != wire.StatusOK || len(res.Resp.Decisions) != 5 {
		t.Fatalf("status=%v decisions=%d", res.Status, len(res.Resp.Decisions))
	}
	// Quota'd tenant: one token, so the second tagged call must shed.
	for i := 0; i < 2; i++ {
		ch, err := c.SendTagged(service.Request{N: 5, M: 1, U: 2, Value: 4, Tenant: 9}, wire.Tag{Tenant: 9})
		if err != nil {
			t.Fatal(err)
		}
		r := <-ch
		want := wire.StatusOK
		if i == 1 {
			want = wire.StatusQuota
		}
		if r.Status != want {
			t.Fatalf("tenant-9 request %d: status=%v want %v", i, r.Status, want)
		}
	}
	const uncapped = 4
	var pending []<-chan wire.Result
	for i := 0; i < uncapped; i++ {
		ch, err := c.SendTagged(service.Request{N: 5, M: 1, U: 2, Value: 4}, wire.Tag{Tenant: 0})
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, ch)
	}
	for i, ch := range pending {
		if r := <-ch; r.Status != wire.StatusOK {
			t.Fatalf("tenant-0 request %d: status=%v want %v", i, r.Status, wire.StatusOK)
		}
	}
	c.Close()

	snap, err := router.scrape()
	if err != nil {
		t.Fatal(err)
	}
	const routed = 2 + uncapped
	if got := snap.Counter("fleet_routed_total"); got != routed {
		t.Errorf("fleet_routed_total = %d, want %d", got, routed)
	}
	if got := snap.Counter("fleet_shed_quota_total"); got != 1 {
		t.Errorf("fleet_shed_quota_total = %d, want 1", got)
	}
	if got := snap.Counter(`fleet_admission_shed_total{tenant="9"}`); got != 1 {
		t.Errorf("per-tenant shed series = %d, want 1", got)
	}
	if got := snap.Counter(`fleet_admission_shed_total{tenant="0"}`); got != 0 {
		t.Errorf("uncapped tenant shed %d requests, want 0", got)
	}
	hist, ok := snap.Histograms["fleet_backend_latency"]
	if !ok || hist.Count != routed {
		t.Errorf("fleet_backend_latency count = %d (present=%v), want %d", hist.Count, ok, routed)
	}
	healthy := 0
	for _, d := range daemons {
		if snap.Gauges[`fleet_backend_healthy{backend="`+d.addr+`"}`] == 1 {
			healthy++
		}
	}
	if healthy != 2 {
		t.Errorf("healthy backend gauges = %d, want 2\ngauges: %v", healthy, snap.Gauges)
	}

	// Router first (it drains in-flight calls, which needs the daemons still
	// up), then the daemons; every member must exit cleanly.
	for i, mb := range append([]*member{router}, daemons...) {
		if err := mb.Terminate(); err != nil {
			t.Errorf("stop member %d: %v", i, err)
		}
	}
}
