// Command perfbench is the repository's end-to-end benchmark of the proxy
// planes. It runs one open-loop workload (workqueue, fanout or tasks; see
// workloads.go and README.md) against an in-process kv server reached over
// loopback TCP, checks every output, and prints the workload's metrics:
// a table for people, then one JSON object as the last line.
//
// With -trace 0 it reports the end-to-end metrics of an untraced run.
// With -trace 1 it runs the workload twice, each pass half as long —
// untraced, then with every layer wrapped and timed — and reports the
// per-layer metrics of the traced pass, with the tracing overhead between
// the two.
//
// Usage (normally through run.py, which builds it):
//
//	perfbench -workload workqueue|fanout|tasks -seed N -seconds S -trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// setupReps is how many times an untraced run builds the stack; setup_s
// is the median, and the last build is the one measured.
const setupReps = 7

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output. Info metrics are printed
// in the table for people but left out of the JSON, which carries exactly
// the metrics BENCHMARK.json lists for the mode.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Info      map[string]metric `json:"-"`
}

func main() {
	name := flag.String("workload", "", "workload: workqueue, fanout or tasks")
	seed := flag.Uint64("seed", 1, "seed for the arrival schedule and payloads")
	seconds := flag.Int("seconds", 10, "length of the measured schedule")
	traced := flag.Int("trace", 0, "1: per-layer metrics from a traced run")
	spans := flag.String("spans", filepath.Join(".bench_build", "spans"), "directory traced runs write their spans to")
	flag.Parse()
	wl := lookupWorkload(*name)
	if wl == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench -workload workqueue|fanout|tasks -seed N -seconds S -trace 0|1\n")
		os.Exit(2)
	}
	// A stuck run must still end well inside the 180 s a run is allowed.
	limit := time.Duration(*seconds)*time.Second + 90*time.Second
	time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s did not finish within %v\n", wl.name, limit)
		os.Exit(1)
	})

	var rep report
	var err error
	if *traced == 1 {
		// The untraced and the traced pass share the run's length, so a
		// traced run takes as long as an untraced one.
		rep, err = layerRun(wl, *seed, time.Duration(*seconds)*time.Second/2, filepath.Join(*spans, fmt.Sprintf("%s-seed%d.tsv", wl.name, *seed)))
	} else {
		rep, err = endToEndRun(wl, *seed, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
	}
	printTable(wl.name, rep)
	line, jerr := json.Marshal(rep)
	if jerr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", jerr)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if err != nil || !rep.Correct {
		os.Exit(1)
	}
}

func printTable(name string, rep report) {
	names := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%s: %d items attempted, %d failed, correct=%v\n", name, rep.Attempted, rep.Failed, rep.Correct)
	for _, k := range names {
		fmt.Printf("  %-40s %14.4f %s\n", k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
	}
	for k, m := range rep.Info {
		fmt.Printf("  %-40s %14.4f %s (not gated)\n", k, m.Value, m.Unit)
	}
}

// endToEndRun builds the stack setupReps times, then measures the seeded
// schedule on the last build, untraced.
func endToEndRun(wl *workload, seed uint64, length time.Duration) (report, error) {
	pay := newPayloads(seed, wl.size)
	offsets := schedule(seed, wl.rate, length)
	var setups []float64
	var st stack
	for k := 0; k < setupReps; k++ {
		s, took, err := build(wl, pay, nil)
		if err != nil {
			return report{Attempted: len(offsets), Failed: len(offsets)}, err
		}
		setups = append(setups, took.Seconds())
		if k < setupReps-1 {
			s.close()
		} else {
			st = s
		}
	}
	w := measure(st, wl, pay, offsets, length)
	st.close()
	rep := outcome(w)
	ok := float64(w.good) / float64(max(w.expected, 1))
	rep.Metrics = map[string]metric{
		"latency_p50_ms":    {w.sliceMedian(func(s slice) float64 { return quantile(s.latMs, 0.50) }), "ms"},
		"cpu_us_per_item":   {w.sliceMedian(func(s slice) float64 { return float64(s.cpu.Microseconds()) / float64(s.items) }), "us"},
		"alloc_kb_per_item": {w.sliceMedian(func(s slice) float64 { return float64(s.alloc) / 1024 / float64(s.items) }), "KiB"},
		"kv_cmds_per_item":  {float64(w.after.total()-w.before.total()) / float64(w.items), "count"},
		"peak_rss_mb":       {peakRSSMiB(), "MiB"},
		"ok_ratio":          {ok, "ratio"},
		"setup_s":           {median(setups), "s"},
	}
	rep.Info = map[string]metric{"latency_p99_ms": {w.p99(), "ms"}}
	if w.samples < 1000 && w.err == nil {
		w.err = fmt.Errorf("only %d latency samples; a run needs at least 1000 (raise -seconds)", w.samples)
		rep.Correct = false
	}
	return rep, w.err
}

// outcome fills the pass/fail part of a report. An item fails when any of
// its completions is missing or does not verify.
func outcome(w window) report {
	return report{
		Correct:   w.err == nil && w.items > 0 && w.good == int64(w.expected) && w.bad == 0,
		Attempted: max(w.items, 1),
		Failed:    w.failedItems,
	}
}

// layerRun measures the schedule untraced, then again on a fresh stack
// with every layer wrapped, and reports the traced run's layer metrics.
func layerRun(wl *workload, seed uint64, length time.Duration, spanPath string) (report, error) {
	base, w, tr, err := tracedPair(wl, seed, length)
	rep := outcome(w)
	if err != nil {
		return rep, err
	}
	rep.Metrics = layerMetrics(tr, w, base)
	if err := tr.write(spanPath); err != nil {
		return rep, fmt.Errorf("writing spans: %w", err)
	}
	return rep, nil
}

// tracedPair measures the seeded schedule on an untraced stack (base),
// then on a traced one (w).
func tracedPair(wl *workload, seed uint64, length time.Duration) (base, w window, tr *tracer, err error) {
	pay := newPayloads(seed, wl.size)
	offsets := schedule(seed, wl.rate, length)
	if base, err = measureOnce(wl, pay, offsets, length, nil); err != nil {
		return base, base, nil, fmt.Errorf("untraced pass: %w", err)
	}
	tr = newTracer()
	if w, err = measureOnce(wl, pay, offsets, length, tr); err != nil {
		return base, w, tr, fmt.Errorf("traced pass: %w", err)
	}
	return base, w, tr, nil
}

// measureOnce builds one stack, measures the schedule on it and closes it.
func measureOnce(wl *workload, pay *payloads, offsets []time.Duration, length time.Duration, tr *tracer) (window, error) {
	st, _, err := build(wl, pay, tr)
	if err != nil {
		return window{items: len(offsets)}, err
	}
	w := measure(st, wl, pay, offsets, length)
	st.close()
	return w, w.err
}
