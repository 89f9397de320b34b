package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// manifest is BENCHMARK.json: the declaration this package's tables and
// bounds are checked against, and where -compare reads its bounds from.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// loadManifest finds BENCHMARK.json at the repository root by walking up
// from this source file, the executable and the working directory, in that
// order — never from the working directory alone, so the command works
// from anywhere inside the module.
func loadManifest() (manifest, error) {
	var starts []string
	if _, file, _, ok := runtime.Caller(0); ok {
		starts = append(starts, filepath.Dir(file))
	}
	if exe, err := os.Executable(); err == nil {
		starts = append(starts, filepath.Dir(exe))
	}
	if wd, err := os.Getwd(); err == nil {
		starts = append(starts, wd)
	}
	for _, dir := range starts {
		for {
			data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
			if err == nil {
				var m manifest
				if err := json.Unmarshal(data, &m); err != nil {
					return m, fmt.Errorf("%s: %w", filepath.Join(dir, "BENCHMARK.json"), err)
				}
				return m, nil
			}
			parent := filepath.Dir(dir)
			if parent == dir {
				break
			}
			dir = parent
		}
	}
	return manifest{}, fmt.Errorf("BENCHMARK.json not found above %v", starts)
}

// setsFile is what -out writes and -compare reads: every value of every
// set, by workload and metric.
type setsFile struct {
	Seconds float64                         `json:"seconds"`
	Seed    int64                           `json:"seed"`
	Sets    int                             `json:"sets"`
	Values  map[string]map[string][]float64 `json:"values"`
}

// runAll runs every workload in a fresh child process of this binary —
// untraced, then traced — once per set, and reports each metric (with its
// median and quartiles over the sets when there are several). Set k uses
// seed+k, so sets differ in their inputs the way the pipeline's runs do.
func runAll(o options, stdout, stderr io.Writer) error {
	m, err := loadManifest()
	if err != nil {
		return err
	}
	if o.seconds <= 0 {
		o.seconds = float64(m.RunSeconds)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	file := setsFile{Seconds: o.seconds, Seed: o.seed, Sets: o.sets, Values: map[string]map[string][]float64{}}
	failed := 0
	for set := 0; set < o.sets; set++ {
		for _, trace := range []int{0, 1} {
			for _, w := range workloads {
				res, err := runChild(exe, w, o.seed+int64(set), o.seconds, trace, stdout, stderr)
				if err != nil {
					return err
				}
				failed += res.Failed
				if !res.Correct {
					failed++
				}
				if file.Values[w] == nil {
					file.Values[w] = map[string][]float64{}
				}
				for name, v := range res.Metrics {
					file.Values[w][name] = append(file.Values[w][name], v.Value)
				}
			}
		}
	}
	if o.sets > 1 {
		fmt.Fprintf(stdout, "\n%d sets, %.0f s windows: median [first quartile, third quartile]\n", o.sets, o.seconds)
		for _, w := range workloads {
			fmt.Fprintf(stdout, "%s\n", w)
			for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
				q1, med, q3 := quartiles(file.Values[w][d.Name])
				fmt.Fprintf(stdout, "  %-30s %16.4f [%.4f, %.4f] %s\n", d.Name, med, q1, q3, d.Unit)
			}
		}
	}
	if o.out != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, data, 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

// runChild runs one workload in a child process under the same deadline
// the child enforces on itself (plus a margin to let it report), echoes
// what it printed, and parses the result off its last line.
func runChild(exe, workload string, seed int64, seconds float64, trace int, stdout, stderr io.Writer) (result, error) {
	limit := time.Duration(seconds*3*float64(time.Second)) + 40*time.Second
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe,
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "-trace", strconv.Itoa(trace))
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = stderr
	err := cmd.Run()
	lines := bytes.Split(bytes.TrimRight(buf.Bytes(), "\n"), []byte("\n"))
	last := lines[len(lines)-1]
	var res result
	if err == nil {
		err = json.Unmarshal(last, &res)
		lines = lines[:len(lines)-1]
	}
	for _, l := range lines {
		fmt.Fprintf(stdout, "%s\n", l)
	}
	if ctx.Err() != nil {
		return res, fmt.Errorf("%s: failed: child killed %v after start", workload, limit)
	}
	if err != nil {
		return res, fmt.Errorf("%s (trace %d): %w", workload, trace, err)
	}
	return res, nil
}

// quartiles returns the first quartile, median and third quartile of xs,
// the quartiles by the exclusive method of Python's statistics.quantiles
// (the one the pipeline applies to its own runs).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		lo := int(pos)
		switch {
		case lo < 1:
			return s[0]
		case lo >= n:
			return s[n-1]
		}
		return s[lo-1] + (s[lo]-s[lo-1])*(pos-float64(lo))
	}
	return at(1), at(2), at(3)
}

// compareFiles prints, for every end-to-end metric on every workload,
// whether B (the change) is better than A (the parent), within the
// metric's bound of it, worse, or unresolved because the spread between a
// side's own sets is wider than the bound; and whether every exact count
// is identical.
func compareFiles(args []string, stdout io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare takes two files written by -out, got %d arguments", len(args))
	}
	m, err := loadManifest()
	if err != nil {
		return err
	}
	var sides [2]setsFile
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &sides[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	tally := map[string]int{}
	fmt.Fprintf(stdout, "%-11s %-20s %14s %14s %8s %8s %7s  %s\n", "workload", "metric", "A median", "B median", "change", "spread", "bound", "verdict")
	for _, w := range workloads {
		for _, e := range m.EndToEnd {
			a, b := sides[0].Values[w][e.Name], sides[1].Values[w][e.Name]
			if len(a) == 0 || len(b) == 0 {
				return fmt.Errorf("%s %s: missing from one side", w, e.Name)
			}
			aq1, amed, aq3 := quartiles(a)
			bq1, bmed, bq3 := quartiles(b)
			spread := max((aq3-aq1)/amed, (bq3-bq1)/bmed)
			worse := (bmed - amed) / amed // as a share of the parent's median
			if e.Better == "higher" {
				worse = -worse
			}
			verdict := "within bound"
			switch {
			case spread > e.Bound:
				verdict = "unresolved"
			case worse > e.Bound:
				verdict = "worse"
			case -worse > spread && -worse > 0:
				verdict = "better"
			}
			tally[verdict]++
			fmt.Fprintf(stdout, "%-11s %-20s %14.4f %14.4f %+7.2f%% %7.2f%% %6.0f%%  %s\n",
				w, e.Name, amed, bmed, 100*(bmed-amed)/amed, 100*spread, 100*e.Bound, verdict)
		}
	}
	differ := 0
	for _, w := range workloads {
		for _, name := range exactCounts {
			a, b := sides[0].Values[w][name], sides[1].Values[w][name]
			if len(a) != len(b) {
				differ++
				continue
			}
			for i := range a {
				if a[i] != b[i] {
					differ++
					fmt.Fprintf(stdout, "%s %s: set %d counts %v against %v\n", w, name, i, a[i], b[i])
					break
				}
			}
		}
	}
	fmt.Fprintf(stdout, "better %d, within bound %d, worse %d, unresolved %d; exact counts that differ: %d\n",
		tally["better"], tally["within bound"], tally["worse"], tally["unresolved"], differ)
	if tally["worse"] > 0 || tally["unresolved"] > 0 || differ > 0 {
		return fmt.Errorf("the two sides do not agree within the benchmark's bounds")
	}
	return nil
}
