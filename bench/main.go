// Command bench is the repository's one benchmark: five workloads over the
// serving path (wire → service → engine, and the fleet router in front) and
// the simulators (chaos campaigns, the async driver), all in one process
// over real loopback sockets, with outputs checked for correctness.
//
//	go run -C bench degradable/bench                     # all five, then a traced pass of each
//	go run -C bench degradable/bench -sets 5 -out A.json # five full sets, medians and quartiles
//	go run -C bench degradable/bench -compare A.json B.json
//	go run -C bench degradable/bench -workload serve_deep -seed 7 -seconds 12 -trace 0
//
// The last form is what BENCHMARK.json's command runs: one workload in this
// process, its metrics printed by name and again as one JSON object on the
// last line. Without -workload the command runs every workload in a fresh
// child process of the same binary, so heap, pools and peak RSS never leak
// from one workload into the next. README.md defines every metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	traceOut string
	sets     int
	out      string
	compare  bool
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run this one workload in process (default: all five, each in a child process)")
	fs.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&o.seconds, "seconds", 0, "measured window per workload (default: BENCHMARK.json run_seconds)")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: the traced pass, per-layer metrics")
	fs.StringVar(&o.traceOut, "trace-out", "", "with -trace 1, also dump the recorded spans as JSON to this file")
	fs.IntVar(&o.sets, "sets", 1, "number of full sets; more than one reports median and quartiles")
	fs.StringVar(&o.out, "out", "", "write the sets' values as JSON to this file (input of -compare)")
	fs.BoolVar(&o.compare, "compare", false, "compare two -out files: bench -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	switch {
	case o.compare:
		err = compareFiles(fs.Args(), stdout)
	case o.workload != "":
		err = runOne(o, stdout)
	default:
		err = runAll(o, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// workload is one of the five workloads, as the window loop sees it.
type workload interface {
	// setup generates the inputs from the seed, starts whatever serves
	// them, and runs one whole warm-up pass.
	setup() error
	// pass runs one whole measured pass over the input set.
	pass() pass
	// verify runs the checks that wait for the window to close and
	// returns how many outputs it checked and how many failed.
	verify() (checked, failed int)
	teardown() error
}

func newWorkload(name string, seed int64, scale float64) (workload, error) {
	switch name {
	case "serve_fast", "serve_deep", "fleet_open":
		return &serving{name: name, seed: seed, scale: scale}, nil
	case "sim_sync", "sim_async":
		return &simulated{name: name, seed: seed, scale: scale}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloads)
}

// setupRuns is how often a run sets up; setup_s is the median.
const setupRuns = 3

// runOne runs one workload in this process under its hard deadline and
// prints the result; the JSON object is the last line.
func runOne(o options, stdout io.Writer) error {
	if o.seconds <= 0 {
		o.seconds = 1
	}
	// The deadline is window × 3 + 30 s: a run that has not finished by
	// then is stuck, and reporting that beats hanging the pipeline.
	limit := time.Duration(o.seconds*3*float64(time.Second)) + 30*time.Second
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	type outcome struct {
		res result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		var out outcome
		if o.trace != 0 {
			out.res, out.err = tracedPass(o, 1, stdout)
		} else {
			out.res, out.err = measure(o, 1, stdout)
		}
		done <- out
	}()
	select {
	case out := <-done:
		if out.err != nil {
			return fmt.Errorf("%s: %w", o.workload, out.err)
		}
		line, err := json.Marshal(out.res)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", line)
		return nil
	case <-ctx.Done():
		return fmt.Errorf("%s: failed: not finished %v after start (deadline = window × 3 + 30 s)", o.workload, limit)
	}
}

// measure is the untraced run: set-up (several times, for a steady
// setup_s), then whole passes until the window has elapsed, then the
// checks that wait for the window to close. Each pass is one sample of
// every rate and latency metric, and the reported value is the median over
// passes, which is what keeps two runs of the same code within a few
// percent of each other on a shared two-core box.
func measure(o options, scale float64, stdout io.Writer) (result, error) {
	w, err := newWorkload(o.workload, o.seed, scale)
	if err != nil {
		return result{}, err
	}
	before := runtime.NumGoroutine()
	setups := make([]float64, 0, setupRuns)
	for i := 0; i < setupRuns; i++ {
		if i > 0 {
			if err := w.teardown(); err != nil {
				return result{}, fmt.Errorf("teardown: %w", err)
			}
		}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			w.teardown()
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	// Each pass is folded into its samples as soon as it ends: holding the
	// passes' latency arrays for the whole window would be most of
	// rss_peak_mb.
	res := result{Metrics: map[string]metric{}}
	var ops, p50, p99, cpu, alloc []float64
	var late []int64
	passes, slow := 0, 0
	window := time.Duration(o.seconds * float64(time.Second))
	for start := time.Now(); passes == 0 || time.Since(start) < window; passes++ {
		p := w.pass()
		res.Attempted += p.ops + p.failed
		res.Failed += p.failed
		slow += p.slow
		late = append(late, p.late...)
		if p.ops == 0 {
			continue
		}
		ops = append(ops, float64(p.ops)/p.wall.Seconds())
		sortNs(p.lat)
		p50 = append(p50, quantileNs(p.lat, 0.50)/1e3)
		p99 = append(p99, quantileNs(p.lat, 0.99)/1e3)
		cpu = append(cpu, float64(p.cpu.Microseconds())/float64(p.ops))
		alloc = append(alloc, float64(p.alloc)/float64(p.ops))
	}
	checked, failedChecks := w.verify()
	if err := w.teardown(); err != nil {
		return result{}, fmt.Errorf("teardown: %w", err)
	}
	if leaked := awaitGoroutines(before); leaked > 0 {
		return result{}, fmt.Errorf("%d goroutines still running after shutdown", leaked)
	}
	res.Failed += failedChecks
	res.Correct = res.Failed == 0 && len(ops) > 0
	if len(ops) == 0 {
		return res, fmt.Errorf("no operation completed")
	}
	values := map[string]float64{
		"setup_s":            median(setups),
		"ops_per_s":          median(ops),
		"latency_p50_us":     median(p50),
		"cpu_us_per_op":      median(cpu),
		"alloc_bytes_per_op": median(alloc),
		"rss_peak_mb":        rssPeakMB(),
	}
	fmt.Fprintf(stdout, "workload %s  seed %d  window %.1fs  passes %d  attempted %d  failed %d  replies re-checked %d\n",
		o.workload, o.seed, o.seconds, passes, res.Attempted, res.Failed, checked)
	samples := map[string]int{"setup_s": len(setups), "rss_peak_mb": 1}
	for _, d := range endToEnd {
		n, ok := samples[d.Name]
		if !ok {
			n = len(ops) // one sample per pass
		}
		res.Metrics[d.Name] = metric{Value: values[d.Name], Unit: d.Unit}
		fmt.Fprintf(stdout, "  %-22s %14.4f %-4s (n=%d)\n", d.Name, values[d.Name], d.Unit, n)
	}
	// The 99th percentile is printed, not bounded: see tailPasses.
	fmt.Fprintf(stdout, "  latency p99 %.1f us (median of %d passes; the traced pass reports it as latency_p99_us)\n", median(p99), len(p99))
	if len(late) > 0 {
		// Generator lateness is reported, never fatal.
		sortNs(late)
		fmt.Fprintf(stdout, "  generator lateness p50 %.1f us, p99 %.1f us; %d of %d later than the %.0f us limit\n",
			quantileNs(late, 0.5)/1e3, quantileNs(late, 0.99)/1e3, slow, res.Attempted, sloLimitUs)
	}
	return res, nil
}

// awaitGoroutines waits for the goroutine count to fall back to what it
// was before set-up and returns how many are left over.
func awaitGoroutines(before int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine() - before
		if n <= 0 || time.Now().After(deadline) {
			return max(n, 0)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
