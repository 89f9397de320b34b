package service_test

import (
	"context"
	"math/rand"
	"net"
	"reflect"
	"testing"

	"degradable/internal/service"
	"degradable/internal/spec"
	"degradable/internal/types"
	"degradable/internal/wire"
)

// forcedPath submits a request sequence through one entry point and returns
// the responses plus the shard each request was dealt to.
type forcedPath struct {
	name string
	run  func(t *testing.T, svc *service.Service, reqs []service.Request) []service.Response
	// shard maps request i to the shard that accounts it.
	shard func(i, shards int) int
}

var forcedPaths = []forcedPath{
	{"Slot.Do", func(t *testing.T, svc *service.Service, reqs []service.Request) []service.Response {
		sl := svc.NewSlot()
		out := make([]service.Response, len(reqs))
		for i, req := range reqs {
			resp, err := sl.Do(context.Background(), req)
			if err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
			resp.Decisions = append([]types.Value(nil), resp.Decisions...) // the slot's buffer is reused
			out[i] = resp
		}
		return out
	}, func(int, int) int { return 0 }},
	{"Service.Do", func(t *testing.T, svc *service.Service, reqs []service.Request) []service.Response {
		out := make([]service.Response, len(reqs))
		for i, req := range reqs {
			resp, err := svc.Do(context.Background(), req)
			if err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
			out[i] = resp
		}
		return out
	}, func(i, shards int) int { return i % shards }},
	{"wire", func(t *testing.T, svc *service.Service, reqs []service.Request) []service.Response {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := wire.NewServer(ln, svc)
		go srv.Serve()
		defer srv.Shutdown(context.Background())
		c, err := wire.Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		out := make([]service.Response, len(reqs))
		for i, req := range reqs {
			res, err := c.Do(context.Background(), req)
			if err != nil || res.Status != wire.StatusOK {
				t.Fatalf("request %d: %v %v %s", i, err, res.Status, res.Errmsg)
			}
			out[i] = res.Resp
		}
		return out
	}, func(int, int) int { return 0 }}, // one request in flight: the connection's one slot
}

// TestForcedParity holds fault-free requests, decided at submission, to the
// contract they had when every request ran on a shard: Slot.Do, Service.Do
// and the wire server give the same Response for the same seeded requests,
// and each shard's counters move by what its share of them owed: every
// request accepted, completed, a fast-path hit and a D.1 instance, and every
// SpecSample-th request on the shard spec-checked, with its verdict on the
// response.
func TestForcedParity(t *testing.T) {
	shapes := []service.Request{
		{N: 5, M: 1, U: 2}, {N: 7, M: 2, U: 2}, {N: 4, M: 0, U: 2},
		{N: 6, M: 1, U: 3, Sender: 2}, {N: 11, M: 3, U: 4, Sender: 10},
	}
	rnd := rand.New(rand.NewSource(7))
	reqs := make([]service.Request, 41)
	for i := range reqs {
		reqs[i] = shapes[rnd.Intn(len(shapes))]
		reqs[i].Value = types.Value(rnd.Int63n(1000))
		if i%9 == 4 {
			reqs[i].Value = types.Default // every receiver decides V_d: degraded
		}
	}
	for _, shards := range []int{1, 2} {
		for _, rate := range []int{1, 4} {
			var first []service.Response
			for _, path := range forcedPaths {
				svc := service.New(service.Config{Shards: shards, SpecSample: rate})
				got := path.run(t, svc, reqs)
				svc.Close()

				onShard := make([]int, shards)
				for i, req := range reqs {
					sh := path.shard(i, shards)
					onShard[sh]++
					want := forcedResponse(req, onShard[sh]%rate == 0)
					if !reflect.DeepEqual(got[i], want) {
						t.Fatalf("shards=%d rate=%d %s: request %d = %+v, want %+v", shards, rate, path.name, i, got[i], want)
					}
				}
				if shards == 1 {
					if first == nil {
						first = got
					}
					for i := range got {
						if !reflect.DeepEqual(got[i], first[i]) {
							t.Fatalf("rate=%d %s: request %d differs from %s", rate, path.name, i, forcedPaths[0].name)
						}
					}
				}
				for sh, k := range onShard {
					for name, want := range map[string]int{
						"accepted_total": k, "completed_total": k, "fastpath_hit_total": k,
						"condition_d1_total": k, "spec_checked_total": k / rate,
						"rejected_total": 0, "fastpath_fallback_total": 0, "spec_violations_total": 0,
					} {
						if got := service.ShardCounter(svc, sh, name); got != uint64(want) {
							t.Errorf("shards=%d rate=%d %s: shard %d %s = %d, want %d", shards, rate, path.name, sh, name, got, want)
						}
					}
				}
			}
		}
	}
}

// forcedResponse is the response a fault-free request owes: every node
// decides the sender's value under D.1, and a checked one carries the
// spec's verdict on those decisions.
func forcedResponse(req service.Request, checked bool) service.Response {
	resp := service.Response{
		Decisions: make([]types.Value, req.N),
		Condition: "D.1",
		Degraded:  req.Value == types.Default,
		OK:        true,
	}
	decisions := make(map[types.NodeID]types.Value, req.N)
	for i := range resp.Decisions {
		resp.Decisions[i] = req.Value
		decisions[types.NodeID(i)] = req.Value
	}
	if checked {
		v := spec.Check(spec.Execution{M: req.M, U: req.U, Sender: req.Sender, SenderValue: req.Value, Decisions: decisions})
		resp.Checked, resp.OK, resp.Graceful, resp.Reason = true, v.OK, v.Graceful, v.Reason
	}
	return resp
}
