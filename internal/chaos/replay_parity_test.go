package chaos

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net"
	"reflect"
	"testing"

	"degradable/internal/adversary"
	"degradable/internal/service"
	"degradable/internal/spec"
	"degradable/internal/types"
	"degradable/internal/wire"
)

// replayOf is the chaos scenario a served request is: the same shape, the
// sender's value and the same fault list, with no channel interference.
func replayOf(req service.Request) Scenario {
	return Scenario{N: req.N, M: req.M, U: req.U, Sender: req.Sender, SenderValue: req.Value, Faults: req.Faults}
}

// replay runs sc in process and returns its judged outcome together with
// the decisions the judge read.
func replay(t *testing.T, sc Scenario) (*Outcome, map[types.NodeID]types.Value) {
	t.Helper()
	var dec map[types.NodeID]types.Value
	out, err := sc.RunWith(func(sc Scenario) (*ExecOutcome, error) {
		eo, err := inProcess(sc)
		if eo != nil {
			dec = eo.Decisions
		}
		return eo, err
	})
	if err != nil {
		t.Fatalf("replay %+v: %v", sc, err)
	}
	return out, dec
}

// parityRequests draws n seeded requests over a few shapes: fault-free ones
// (decided at submission), a faulty sender alone (the sender probe: lie,
// silent and crash are unanimous hits, twofaced and random mostly miss) and
// non-sender faults, up to u+1 of them (the full VOTE path). Sender and
// fault values are drawn from a set that holds 0.
func parityRequests(n int) []service.Request {
	shapes := []service.Request{
		{N: 5, M: 1, U: 2}, {N: 7, M: 2, U: 2, Sender: 1}, {N: 4, M: 0, U: 2},
		{N: 6, M: 1, U: 3, Sender: 2}, {N: 7, M: 1, U: 4, Sender: 6},
	}
	values := []types.Value{0, 0, 1, 7, -3, 1001, 2002, math.MaxInt64}
	kinds := []adversary.Kind{adversary.KindSilent, adversary.KindCrash, adversary.KindLie,
		adversary.KindTwoFaced, adversary.KindRandom}
	rnd := rand.New(rand.NewSource(53))
	fault := func(node types.NodeID) adversary.FaultSpec {
		return adversary.FaultSpec{Node: node, Kind: kinds[rnd.Intn(len(kinds))],
			Value: values[rnd.Intn(len(values))], Seed: rnd.Int63n(4)}
	}
	reqs := make([]service.Request, n)
	for i := range reqs {
		req := shapes[rnd.Intn(len(shapes))]
		req.Value = values[rnd.Intn(len(values))]
		switch i % 3 {
		case 0: // fault-free
		case 1: // the sender alone
			req.Faults = []adversary.FaultSpec{fault(req.Sender)}
		default: // 1..u+1 faults, the sender among them at random
			for _, node := range rnd.Perm(req.N)[:1+rnd.Intn(req.U+1)] {
				req.Faults = append(req.Faults, fault(types.NodeID(node)))
			}
		}
		reqs[i] = req
	}
	return reqs
}

// TestReplayParity serves seeded requests through Slot.Do and through the
// wire server, every one spec-checked, and replays each as a chaos scenario
// in process: every node's decision, the condition, the verdict bits and the
// reason must be the scenario's, and the service's floor margin must be the
// least margin over the replays the floor is promised for (f ≤ u).
func TestReplayParity(t *testing.T) {
	reqs := parityRequests(240)
	type replayed struct {
		out *Outcome
		dec map[types.NodeID]types.Value
	}
	replays := make([]replayed, len(reqs))
	minMargin := int64(math.MaxInt64)
	var forced, nonSender uint64
	for i, req := range reqs {
		sc := replayOf(req)
		out, dec := replay(t, sc)
		replays[i] = replayed{out, dec}
		v := spec.Check(spec.Execution{M: sc.M, U: sc.U, Sender: sc.Sender, SenderValue: sc.SenderValue,
			Faulty: sc.Faulty(), Decisions: dec})
		if v.Condition != "none" {
			minMargin = min(minMargin, int64(v.Margin))
		}
		switch {
		case len(req.Faults) == 0:
			forced++
		case len(req.Faults) > 1 || req.Faults[0].Node != req.Sender:
			nonSender++
		}
	}

	for _, path := range []struct {
		name string
		do   func(t *testing.T, svc *service.Service) func(service.Request) service.Response
	}{
		{"Slot.Do", func(t *testing.T, svc *service.Service) func(service.Request) service.Response {
			sl := svc.NewSlot()
			return func(req service.Request) service.Response {
				resp, err := sl.Do(context.Background(), req)
				if err != nil {
					t.Fatalf("Slot.Do %+v: %v", req, err)
				}
				return resp
			}
		}},
		{"wire", func(t *testing.T, svc *service.Service) func(service.Request) service.Response {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv := wire.NewServer(ln, svc)
			go srv.Serve()
			t.Cleanup(func() { srv.Shutdown(context.Background()) })
			c, err := wire.Dial(ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			return func(req service.Request) service.Response {
				res, err := c.Do(context.Background(), req)
				if err != nil || res.Status != wire.StatusOK {
					t.Fatalf("wire %+v: %v %v %s", req, err, res.Status, res.Errmsg)
				}
				return res.Resp
			}
		}},
	} {
		t.Run(path.name, func(t *testing.T) {
			svc := service.New(service.Config{Shards: 1, SpecSample: 1})
			defer svc.Close()
			do := path.do(t, svc)
			for i, req := range reqs {
				resp, want := do(req), replays[i]
				if len(resp.Decisions) != req.N || len(want.dec) != req.N {
					t.Fatalf("request %d %+v: %d served decisions, %d replayed", i, req, len(resp.Decisions), len(want.dec))
				}
				for id, d := range resp.Decisions {
					if w := want.dec[types.NodeID(id)]; d != w {
						t.Fatalf("request %d %+v: node %d served %s, replay decided %s", i, req, id, d, w)
					}
				}
				if !resp.Checked || resp.Condition != want.out.Condition || resp.OK != want.out.OK ||
					resp.Graceful != want.out.Graceful || resp.Reason != want.out.Reason {
					t.Fatalf("request %d %+v: served %s checked=%v ok=%v graceful=%v %q, replay %s ok=%v graceful=%v %q",
						i, req, resp.Condition, resp.Checked, resp.OK, resp.Graceful, resp.Reason,
						want.out.Condition, want.out.OK, want.out.Graceful, want.out.Reason)
				}
			}
			if margin, ok := svc.FloorMargin(); !ok || margin != minMargin {
				t.Errorf("floor margin %d (set %v), replays' least %d", margin, ok, minMargin)
			}
			st := svc.Stats()
			if st.FastHits <= forced || st.FastFallbacks <= nonSender || st.SpecChecked != uint64(len(reqs)) {
				t.Errorf("stats %+v: want fast hits past the %d fault-free requests (probe hits), fallbacks past the %d non-sender ones (probe misses), every request checked",
					st, forced, nonSender)
			}
		})
	}
}

// TestSenderValueZeroReplays: 0 is an ordinary sender value (V_d is not
// 0), so a scenario with it runs with it and keeps it through its JSON, the
// form -replay reads.
func TestSenderValueZeroReplays(t *testing.T) {
	sc := Scenario{N: 5, M: 1, U: 2, Faults: []adversary.FaultSpec{{Node: 3, Kind: adversary.KindLie, Value: 99}}, Seed: 1}
	out, dec := replay(t, sc)
	for id, d := range dec {
		if id != 3 && d != 0 {
			t.Errorf("node %d decided %s, want the sender's 0", int(id), d)
		}
	}
	if out.Scenario.SenderValue != 0 || out.ClassValue() != SpecHeld {
		t.Errorf("outcome %+v: want sender value 0, SpecHeld", out)
	}
	enc, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	var back Scenario
	if err := json.Unmarshal(enc, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, sc) {
		t.Fatalf("JSON round trip %s: %+v, want %+v", enc, back, sc)
	}
	again, decAgain := replay(t, back)
	if !reflect.DeepEqual(again, out) || !reflect.DeepEqual(decAgain, dec) {
		t.Errorf("JSON replay %+v, Go run %+v", again, out)
	}
}
