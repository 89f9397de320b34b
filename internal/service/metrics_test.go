package service

import (
	"context"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"degradable/internal/adversary"
	"degradable/internal/obs"
	"degradable/internal/types"
)

// scrape fetches the registry's /metrics endpoint and parses the flat
// "name value" sample lines (comments and histogram series skipped).
func scrape(t *testing.T, reg *obs.Registry) map[string]float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	reg.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	samples := make(map[string]float64)
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("bad exposition line %q", line)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		samples[name] = f
	}
	return samples
}

// TestMetricsEndpointUnderFaults is the observability smoke test the issue
// asks for: run a small service under injected faults (all with f ≤ u),
// scrape /metrics, and check the degradation gauges agree with what the
// spec checker itself concluded — the V_d-decider fraction recomputed from
// the returned decisions, the verdict-class counters against the per-response
// conditions, and the m+1-floor margin non-negative exactly because every
// verdict was graceful.
func TestMetricsEndpointUnderFaults(t *testing.T) {
	svc := New(Config{Shards: 2, SpecSample: 1})
	defer svc.Close()
	reg := obs.NewRegistry()
	svc.Register(reg)

	// All shapes keep f ≤ u, spanning D.1 (clean), D.2 (faulty sender),
	// and D.3/D.4 (m < f ≤ u, the degraded regime).
	reqs := []Request{
		{N: 5, M: 1, U: 2, Value: 10},
		{N: 5, M: 1, U: 2, Value: 11, Faults: []adversary.FaultSpec{{Node: 0, Kind: adversary.KindLie, Value: 99}}},
		{N: 5, M: 1, U: 2, Value: 12, Faults: []adversary.FaultSpec{
			{Node: 1, Kind: adversary.KindSilent}, {Node: 2, Kind: adversary.KindSilent}}},
		{N: 5, M: 1, U: 2, Value: 13, Faults: []adversary.FaultSpec{
			{Node: 0, Kind: adversary.KindSilent}, {Node: 2, Kind: adversary.KindSilent}}},
		{N: 7, M: 1, U: 2, Value: 14, Faults: []adversary.FaultSpec{
			{Node: 2, Kind: adversary.KindTwoFaced, Value: 77}, {Node: 5, Kind: adversary.KindSilent}}},
	}
	conditions := make(map[string]uint64)
	var deciders, vdDeciders uint64
	for i, req := range reqs {
		resp, err := svc.Do(context.Background(), req)
		if err != nil {
			t.Fatalf("req %d: %v", i, err)
		}
		if !resp.Checked || !resp.OK {
			t.Fatalf("req %d: Checked=%v OK=%v reason=%q (SpecSample=1, f ≤ u must hold)",
				i, resp.Checked, resp.OK, resp.Reason)
		}
		conditions[resp.Condition]++
		// Recompute the V_d tally over fault-free receivers, the same
		// population the service counts.
		faulty := make(map[types.NodeID]bool, len(req.Faults))
		for _, f := range req.Faults {
			faulty[f.Node] = true
		}
		for id, d := range resp.Decisions {
			if types.NodeID(id) == req.Sender || faulty[types.NodeID(id)] {
				continue
			}
			deciders++
			if d.IsDefault() {
				vdDeciders++
			}
		}
	}

	samples := scrape(t, reg)
	for cond, name := range map[string]string{
		"D.1": "service_condition_d1_total", "D.2": "service_condition_d2_total",
		"D.3": "service_condition_d3_total", "D.4": "service_condition_d4_total",
		"none": "service_condition_none_total",
	} {
		if got := uint64(samples[name]); got != conditions[cond] {
			t.Errorf("%s = %d, want %d (conditions seen: %v)", name, got, conditions[cond], conditions)
		}
	}
	if got := uint64(samples["service_deciders_total"]); got != deciders {
		t.Errorf("service_deciders_total = %d, want %d", got, deciders)
	}
	if got := uint64(samples["service_vd_deciders_total"]); got != vdDeciders {
		t.Errorf("service_vd_deciders_total = %d, want %d", got, vdDeciders)
	}
	wantFrac := float64(vdDeciders) / float64(deciders)
	if got := samples["service_vd_decider_fraction"]; got != wantFrac {
		t.Errorf("service_vd_decider_fraction = %g, want %g", got, wantFrac)
	}
	if vdDeciders == 0 {
		t.Error("workload produced no V_d deciders — the degraded regime was not exercised")
	}
	margin, ok := samples["service_floor_margin_min"]
	if !ok {
		t.Fatal("service_floor_margin_min not exposed after spec-checked instances")
	}
	// Every verdict above was graceful, so the minimum margin over the m+1
	// floor must be non-negative (§2's Observation made a live gauge).
	if margin < 0 {
		t.Errorf("floor margin = %g, want ≥ 0 for graceful verdicts", margin)
	}
	if got := uint64(samples["service_completed_total"]); got != uint64(len(reqs)) {
		t.Errorf("service_completed_total = %d, want %d", got, len(reqs))
	}

	// Fast-path accounting: the fault-free request and the lying-sender
	// request (unanimous probe) hit; the multi-fault ones must fall back.
	if got := uint64(samples["service_fastpath_hit_total"]); got != 2 {
		t.Errorf("service_fastpath_hit_total = %d, want 2", got)
	}
	if got := uint64(samples["service_fastpath_fallback_total"]); got != 3 {
		t.Errorf("service_fastpath_fallback_total = %d, want 3", got)
	}

	// The unified snapshot view must agree with the scrape.
	snap := svc.Telemetry()
	if snap.Counter("vd_deciders_total") != vdDeciders {
		t.Errorf("telemetry vd_deciders_total = %d, want %d", snap.Counter("vd_deciders_total"), vdDeciders)
	}
	if snap.Gauges["vd_decider_fraction"] != wantFrac {
		t.Errorf("telemetry vd_decider_fraction = %g, want %g", snap.Gauges["vd_decider_fraction"], wantFrac)
	}
	if st := svc.Stats(); st.FastHits != 2 || st.FastFallbacks != 3 {
		t.Errorf("Stats fast path = (%d, %d), want (2, 3)", st.FastHits, st.FastFallbacks)
	}
}
