package fleet

import (
	"context"
	"os"
	"testing"
	"time"

	"degradable/internal/service"
	"degradable/internal/wire"
)

// TestMain hijacks re-executed copies of this test binary into the fleet
// roles, so the launcher tests run real daemon and router processes.
func TestMain(m *testing.M) {
	Hijack()
	os.Exit(m.Run())
}

// TestAwaitListenTimesOut: a spawned process that prints nothing and
// stays alive must fail the launch at the deadline instead of blocking
// the launcher until the outer context kills it.
func TestAwaitListenTimesOut(t *testing.T) {
	defer func(old time.Duration) { listenWait = old }(listenWait)
	listenWait = 200 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	p, err := spawnProc(ctx, []string{"sleep", "30"}, "")
	if err != nil {
		t.Fatal(err)
	}
	defer p.kill()
	start := time.Now()
	if err := p.awaitListen(); err == nil {
		t.Fatal("awaitListen succeeded on a silent process")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("awaitListen blocked %v on a silent process, want ~%v", elapsed, listenWait)
	}
}

// TestLaunchFleet spawns a real 2-daemon fleet behind a router (process
// per member, re-exec'd from this binary), routes requests through it over
// TCP, scrapes the router's telemetry, and stops everything. The admission
// story is the gate: the capped tenant sheds with resource_exhausted, and
// the uncapped tenant never sheds, even in a pipelined burst.
func TestLaunchFleet(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	fl, err := Launch(ctx, LaunchConfig{
		Daemons:    2,
		DaemonArgs: []string{"-shards", "1"},
		RouterArgs: []string{"-quota", "9:0.001:1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.kill()
	for _, p := range fl.Daemons {
		p.DrainOutput()
	}
	fl.Router.DrainOutput()

	c, err := wire.Dial(fl.RouterAddr)
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

	snap, err := fl.ScrapeRouter()
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
	for _, p := range fl.Daemons {
		if snap.Gauges[`fleet_backend_healthy{backend="`+p.Addr+`"}`] == 1 {
			healthy++
		}
	}
	if healthy != 2 {
		t.Errorf("healthy backend gauges = %d, want 2\ngauges: %v", healthy, snap.Gauges)
	}

	if err := fl.Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
}
