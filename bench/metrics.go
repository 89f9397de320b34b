package main

import (
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"degradable/internal/stats"
)

// workloads are the five workload names, in run order. Later issues refer
// to them by name; BENCHMARK.json declares the same five.
var workloads = []string{"serve_fast", "serve_deep", "fleet_open", "sim_sync", "sim_async"}

// metricDef names one metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics every workload reports with tracing off.
// BENCHMARK.json gives each its direction and bound. The 99th percentile of
// latency is not among them: see tailPasses.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_us", "us"},
	{"cpu_us_per_op", "us"},
	{"alloc_bytes_per_op", "B"},
	{"rss_peak_mb", "MB"},
}

// perLayer are the metrics a traced pass reports. Times are nanoseconds of
// self time per operation of the suite that measures the layer; *_per_op
// counts repeat exactly for a fixed seed.
var perLayer = []metricDef{
	{"wire.encode_request_ns", "ns"},
	{"wire.decode_request_ns", "ns"},
	{"wire.encode_response_ns", "ns"},
	{"wire.decode_response_ns", "ns"},
	{"wire.frame_bytes_per_op", "B"},
	{"wire.socket_ns", "ns"},
	{"service.handoff_ns", "ns"},
	{"service.execute_fallback_ns", "ns"},
	{"service.fast_hit_frac", "frac"},
	{"service.rejected_frac", "frac"},
	{"service.degraded_frac", "frac"},
	{"service.alloc_bytes_per_op", "B"},
	{"fleet.hop_ns", "ns"},
	{"fleet.shape_key_ns", "ns"},
	{"fleet.ring_lookup_ns", "ns"},
	{"fleet.admit_ns", "ns"},
	{"fleet.backend_share_max", "frac"},
	{"fleet.shed_frac", "frac"},
	{"relay.step_ns", "ns"},
	{"relay.finish_ns", "ns"},
	{"relay.decide_ns", "ns"},
	{"core.nodes_build_ns", "ns"},
	{"eig.set_ns", "ns"},
	{"eig.resolve_ns", "ns"},
	{"eig.fast_decision_ns", "ns"},
	{"eig.reset_ns", "ns"},
	{"eig.paths_per_op", "count"},
	{"vote.vote_ns", "ns"},
	{"adversary.build_ns", "ns"},
	{"adversary.wrap_ns", "ns"},
	{"round.deliver_ns", "ns"},
	{"round.collect_ns", "ns"},
	{"round.engine_new_ns", "ns"},
	{"round.restart_ns", "ns"},
	{"round.msgs_per_op", "count"},
	{"round.bytes_per_op", "B"},
	{"round.delivered_per_op", "count"},
	{"round.async_sched_ns", "ns"},
	{"round.async_deliveries_per_op", "count"},
	{"chaos.channel_ns", "ns"},
	{"chaos.scenario_overhead_ns", "ns"},
	{"spec.check_ns", "ns"},
	{"topology.build_ns", "ns"},
	{"transport.deliver_ns", "ns"},
	{"routednet.deliver_ns", "ns"},
	{"acast.on_deliver_ns", "ns"},
	{"acast.start_ns", "ns"},
	{"acast.echo_per_op", "count"},
	{"acast.ready_per_op", "count"},
	{"acast.cert_per_op", "count"},
	{"aba.on_deliver_ns", "ns"},
	{"aba.rounds_per_op", "count"},
	{"obs.hist_observe_ns", "ns"},
	{"obs.tracer_emit_ns", "ns"},
	{"latency_p99_us", "us"},
	{"gen.late_p99_us", "us"},
	{"slo_miss_frac", "frac"},
	{"trace.overhead_frac", "frac"},
	{"recon.layers_over_e2e", "ratio"},
}

// exactCounts are the per-layer metrics that are counts made by the
// program on seeded inputs: two traced passes with one seed must agree on
// them to the last digit.
var exactCounts = []string{
	"wire.frame_bytes_per_op", "eig.paths_per_op",
	"round.msgs_per_op", "round.bytes_per_op", "round.delivered_per_op",
	"round.async_deliveries_per_op",
	"acast.echo_per_op", "acast.ready_per_op", "acast.cert_per_op", "aba.rounds_per_op",
}

// metric is one reported value in the form the contract asks for.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// pass is the measurement of one whole pass over a workload's input set:
// one sample of every end-to-end metric except setup_s and rss_peak_mb, and
// of the latency_p99_us diagnostic.
type pass struct {
	ops    int // completed and correct
	failed int
	wall   time.Duration
	cpu    time.Duration
	alloc  uint64
	lat    []int64 // ns, one per completed operation
	late   []int64 // ns, generator lateness per arrival (open loop only)
	slow   int     // completed later than the latency limit (open loop only)
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssPeakMB is the peak resident set of this process image: VmHWM from
// /proc/self/status. getrusage's ru_maxrss is not that under `go run`: it
// survives exec, so it never reads below the peak of the go command that
// forked the benchmark (25.6 MB on the reference box, above what serve_deep
// and both simulators use themselves).
func rssPeakMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// meter brackets one pass: wall clock, process CPU and bytes allocated.
type meter struct {
	t0    time.Time
	cpu0  time.Duration
	alloc uint64
}

func startMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{t0: time.Now(), cpu0: cpuTime(), alloc: ms.TotalAlloc}
}

func (m meter) stop(p *pass) {
	p.wall = time.Since(m.t0)
	p.cpu = cpuTime() - m.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.alloc = ms.TotalAlloc - m.alloc
}

func median(xs []float64) float64 { return stats.Summarize(xs).P50 }

func sortNs(ns []int64) { slices.Sort(ns) }

// quantileNs is quantile over an ascending nanosecond sample.
func quantileNs(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return float64(sorted[lo]) + float64(sorted[hi]-sorted[lo])*(pos-float64(lo))
}
