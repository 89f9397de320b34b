package main

import (
	"fmt"
	"io"
	"math"
	"slices"

	"degradable/internal/service"
)

// Operation counts of a traced pass: fixed, so the pass takes about three
// seconds on the traced workload's own suite and the exact counts repeat.
// A suite running on its home inputs for another workload's pass takes a
// sixteenth.
const (
	tracedFast   = 16384
	tracedDeep   = 640
	tracedOpen   = 8192
	tracedSync   = simScenarios
	tracedAsync  = 800
	foreignShare = 16

	// tailPasses is how many untraced passes of the workload's real load a
	// traced pass runs for latency_p99_us. The 99th percentile is a
	// diagnostic here and not a bounded end-to-end metric: on serve_fast it
	// sits on the knee between requests that met a GC mark phase (about 2 %
	// of the time, 320 us at p98) and the rest (1.5 ms at p99.5), and on the
	// two-core reference box its ten-run spread was 17-38 % of its median on
	// every serving workload whatever the window length or estimator, wider
	// than the widest bound a metric may have.
	tailPasses = 3
)

// tailLatency runs the workload's own load pattern, tracing off, for a
// warm-up pass and tailPasses measured ones and returns the median of their
// 99th-percentile latencies in us.
func tailLatency(o options, scale float64) (p99 float64, ops, failed int, err error) {
	w, err := newWorkload(o.workload, o.seed, scale)
	if err != nil {
		return 0, 0, 0, err
	}
	if err := w.setup(); err != nil {
		w.teardown()
		return 0, 0, 0, fmt.Errorf("set-up: %w", err)
	}
	var tails []float64
	for i := 0; i < tailPasses; i++ {
		p := w.pass()
		ops += p.ops + p.failed
		failed += p.failed
		if p.ops > 0 {
			sortNs(p.lat)
			tails = append(tails, quantileNs(p.lat, 0.99)/1e3)
		}
	}
	_, failedChecks := w.verify()
	failed += failedChecks
	if err := w.teardown(); err != nil {
		return 0, ops, failed, fmt.Errorf("teardown: %w", err)
	}
	if len(tails) == 0 {
		return 0, ops, failed, fmt.Errorf("no operation completed")
	}
	return median(tails), ops, failed, nil
}

// flatten interleaves the per-connection streams into one request list.
func flatten(streams [][]service.Request) []service.Request {
	var out []service.Request
	for i := range streams[0] {
		for _, s := range streams {
			out = append(out, s[i])
		}
	}
	return out
}

// tracedPass is the -trace 1 run: every suite, the traced workload's own
// with the full operation count, and the per-layer table assembled from
// them. A metric measured by more than one suite is taken from the traced
// workload's own suite when that measures it, and otherwise from the first
// suite in home order; the printed table names the source of every row.
func tracedPass(o options, scale float64, stdout io.Writer) (result, error) {
	if !slices.Contains(workloads, o.workload) {
		return result{}, fmt.Errorf("unknown workload %q (have %v)", o.workload, workloads)
	}
	count := func(full int, home string) int {
		n := float64(full) * scale
		if home != o.workload {
			n /= foreignShare
		}
		return max(int(n), 8)
	}
	keep := func(home string) bool { return o.traceOut != "" && home == o.workload }

	var suites []suiteOut
	run := func(s suiteOut, err error) error {
		if err != nil {
			return fmt.Errorf("suite %s: %w", s.name, err)
		}
		suites = append(suites, s)
		return nil
	}
	nFast, nDeep, nOpen := count(tracedFast, "serve_fast"), count(tracedDeep, "serve_deep"), count(tracedOpen, "fleet_open")
	nSync, nAsync := count(tracedSync, "sim_sync"), count(tracedAsync, "sim_async")

	fast := flatten(genFast(o.seed, nFast/conns))
	if err := run(requestSuite("requests/fast", fast, false, o.workload == "serve_fast", keep("serve_fast"), 0, o.seed)); err != nil {
		return result{}, err
	}
	deep := flatten(genDeep(o.seed, nDeep/conns))
	if err := run(requestSuite("requests/deep", deep, false, o.workload == "serve_deep", keep("serve_deep"), 0, o.seed)); err != nil {
		return result{}, err
	}
	arrivals, _ := genOpen(o.seed, nOpen)
	open := openRequests(arrivals)
	if err := run(requestSuite("requests/fleet", open, true, o.workload == "fleet_open", keep("fleet_open"), count(openPerPass, "fleet_open"), o.seed)); err != nil {
		return result{}, err
	}
	if err := run(scenarioSuite(genSync(o.seed, nSync), o.workload == "sim_sync", keep("sim_sync"))); err != nil {
		return result{}, err
	}
	if err := run(asyncSuite(genAsync(o.seed, nAsync), o.workload == "sim_async", keep("sim_async"))); err != nil {
		return result{}, err
	}
	probeShape := map[string]shape{
		"serve_fast": shapeFast, "serve_deep": shapeDeep, "fleet_open": shapeFast,
		"sim_sync": shapeMid, "sim_async": shapeDeep,
	}[o.workload]
	if err := run(probes(probeShape)); err != nil {
		return result{}, err
	}

	res := result{Metrics: map[string]metric{}}
	values := map[string]float64{}
	source := map[string]string{}
	var own *suiteOut
	for i := range suites {
		s := &suites[i]
		res.Attempted += s.ops
		res.Failed += s.failed
		if s.native && s.tr != nil {
			own = s
		}
		for name, v := range s.values {
			if _, ok := values[name]; !ok {
				values[name], source[name] = v, s.name+" (home inputs)"
			}
		}
	}
	for i := range suites {
		if s := &suites[i]; s.native {
			for name, v := range s.values {
				values[name], source[name] = v, s.name
			}
		}
	}
	// The traced workload's own numbers.
	if o.workload != "fleet_open" {
		values["slo_miss_frac"] = float64(own.failed) / float64(own.ops)
		source["slo_miss_frac"] = own.name
	}
	values["trace.overhead_frac"] = own.cpuTraced/own.cpuPlain - 1
	values["recon.layers_over_e2e"] = own.layers / own.e2e
	source["trace.overhead_frac"], source["recon.layers_over_e2e"] = own.name, own.name
	tail, tailOps, tailFailed, err := tailLatency(o, scale)
	if err != nil {
		return res, fmt.Errorf("latency_p99_us: %w", err)
	}
	values["latency_p99_us"], source["latency_p99_us"] = tail, fmt.Sprintf("%d untraced passes of %s", tailPasses, o.workload)
	res.Attempted += tailOps
	res.Failed += tailFailed

	fmt.Fprintf(stdout, "workload %s  seed %d  traced pass  operations %d  failed %d\n", o.workload, o.seed, res.Attempted, res.Failed)
	for _, d := range perLayer {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("no suite measured %s", d.Name)
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		fmt.Fprintf(stdout, "  %-30s %16.4f %-5s  %s\n", d.Name, v, d.Unit, source[d.Name])
	}
	if r := values["recon.layers_over_e2e"]; r < 0.85 || r > 1.15 {
		fmt.Fprintf(stdout, "  FLAG: the peeled layers sum to %.2f of the traced end-to-end mean (outside 0.85-1.15)\n", r)
	}
	res.Correct = res.Failed == 0
	if o.traceOut != "" {
		if err := own.tr.dump(o.traceOut); err != nil {
			return res, err
		}
	}
	return res, nil
}
