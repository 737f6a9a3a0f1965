// Command perfbench is dvsim's end-to-end and per-layer benchmark. It
// drives the simulator and the dvsimd server from outside, through
// their public Go APIs and HTTP, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload paper_suite --seed 1 --seconds 15 --trace 0
//
// run.sh builds this program and dvsimd from the checkout and runs it
// from the checkout's root. See README.md for the workloads and the
// metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string // checkout root: sources, goldens
	state    string // benchmark-owned scratch: caches, spans, seed records
	dvsimd   string // server binary built from root
	setups   int    // set-up repetitions; setup_s is their median
}

func (c *config) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// report collects one run's outcome.
type report struct {
	attempted, failed int
	failures          []string
	e2e               map[string]float64
	layer             map[string]float64
	// counters are exact simulated statistics of one pass; digests
	// fingerprint the outputs. Both must repeat for a seed.
	counters map[string]float64
	digests  map[string]string
}

func newReport() *report {
	return &report{
		e2e:      map[string]float64{},
		layer:    map[string]float64{},
		counters: map[string]float64{},
		digests:  map[string]string{},
	}
}

// op counts one attempted operation; a false ok counts it failed.
func (r *report) op(ok bool, format string, args ...any) { r.opN(1, ok, format, args...) }

// opN counts n operations that succeed or fail together.
func (r *report) opN(n int, ok bool, format string, args ...any) {
	r.attempted += n
	if !ok {
		r.failN(n, format, args...)
	}
}

// fail counts a failure of an operation already counted.
func (r *report) fail(format string, args ...any) { r.failN(1, format, args...) }

func (r *report) failN(n int, format string, args ...any) {
	r.failed += n
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// setupReps is how often each workload sets up; setup_s is the median.
// A dvsimd set-up simulates the whole hot set, so it repeats less.
var setupReps = map[string]int{
	"paper_suite":      15,
	"telemetry_stream": 15,
	"fleet_sweep":      15,
	"service_mix":      3,
}

type workloadFunc func(c *config, rep *report, tr *tracer) error

// workloads maps each BENCHMARK.json workload to the function that runs it.
var workloads = map[string]workloadFunc{
	"paper_suite":      paperSuite,
	"telemetry_stream": telemetryStream,
	"fleet_sweep":      fleetSweep,
	"service_mix":      serviceMix,
}

func main() {
	var c config
	var traceFlag int
	flag.StringVar(&c.workload, "workload", "", "workload to run")
	flag.Uint64Var(&c.seed, "seed", 1, "input seed")
	flag.Float64Var(&c.seconds, "seconds", 15, "measurement window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&c.root, "root", ".", "checkout root holding the dvsim sources")
	flag.StringVar(&c.state, "state", ".bench_build/perfbench", "benchmark scratch directory")
	flag.StringVar(&c.dvsimd, "dvsimd", "", "dvsimd binary (service_mix)")
	record := flag.String("record", "", "write expected digests and counters for the workload to FILE and exit")
	flag.Parse()
	c.trace = traceFlag == 1
	c.setups = setupReps[c.workload]

	if *record != "" {
		if err := recordExpected(&c, *record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	rep, err := run(&c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	emit(&c, rep)
}

func run(c *config) (*report, error) {
	wf, ok := workloads[c.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", c.workload)
	}
	if c.seconds <= 0 {
		return nil, errors.New("need --seconds > 0")
	}
	if _, err := os.Stat(filepath.Join(c.root, "internal", "core", "testdata")); err != nil {
		return nil, fmt.Errorf("root %s does not hold the dvsim sources: %w", c.root, err)
	}
	if err := os.MkdirAll(c.state, 0o755); err != nil {
		return nil, err
	}
	var tr *tracer
	if c.trace {
		tr = newTracer()
	}
	rep := newReport()
	if err := runGuarded(func() error { return wf(c, rep, tr) }); err != nil {
		return nil, fmt.Errorf("%s: %w", c.workload, err)
	}
	if _, ok := rep.e2e["peak_rss_mb"]; !ok {
		rep.e2e["peak_rss_mb"] = peakRSSMB(os.Getpid())
	}
	checkDrift(c, rep)
	if c.trace {
		if err := runGuarded(func() error { return ladder(c, rep) }); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		for k, v := range rep.counters {
			rep.layer[k] = v
		}
		if err := tr.write(filepath.Join(c.state, fmt.Sprintf("spans-%s-seed%d.jsonl", c.workload, c.seed))); err != nil {
			return nil, err
		}
	}
	rep.layer["error_rate"] = float64(rep.failed) / float64(max(rep.attempted, 1))
	return rep, nil
}

// runGuarded turns a panic inside the program under test into an error,
// so a crash is reported rather than taken for a result.
func runGuarded(f func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return f()
}

// emit prints the environment, the exact counters, a readable table and,
// last, the result line.
func emit(c *config, rep *report) {
	env := environment(c)
	line, _ := json.Marshal(env)
	fmt.Println("env", string(line))
	line, _ = json.Marshal(rep.counters)
	fmt.Println("counters", string(line))
	line, _ = json.Marshal(rep.digests)
	fmt.Println("digests", string(line))
	for _, f := range rep.failures {
		fmt.Fprintln(os.Stderr, "FAIL:", f)
	}

	defs := endToEnd
	if c.trace {
		defs = perLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metric, len(defs))
	for _, d := range defs {
		v := rep.e2e[d.Name]
		if c.trace {
			v = rep.layer[d.Name]
		}
		metrics[d.Name] = metric{v, d.Unit}
		fmt.Printf("  %-34s %16.6g %s\n", d.Name, v, d.Unit)
	}
	if !c.trace {
		// The workload's own figures, by name, as the traced run reports
		// them too.
		keys := make([]string, 0, len(rep.layer))
		for k := range rep.layer {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("  %-34s %16.6g %s\n", k, rep.layer[k], unitOf(k))
		}
	}
	out, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, metrics})
	fmt.Println(string(out))
}

func unitOf(name string) string {
	for _, d := range perLayer {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}

// seedRecord is what one seed of one workload must reproduce.
type seedRecord struct {
	Counters map[string]float64 `json:"counters"`
	Digests  map[string]string  `json:"digests"`
}

// checkDrift compares the run's counters and digests with the
// committed expectations (expected.json, next to this file's sources)
// and with the first run of the same seed in this checkout, which it
// records. Any difference counts as a failed operation.
func checkDrift(c *config, rep *report) {
	cur := seedRecord{Counters: rep.counters, Digests: rep.digests}
	if exp, ok := expectedFor(c); ok {
		compareRecord(rep, "committed expectation", exp, cur)
	}
	// The service's counters scale with the window, so it is part of the
	// record's name.
	path := filepath.Join(c.state, fmt.Sprintf("seed-%s-%d-%gs.json", c.workload, c.seed, c.seconds))
	if b, err := os.ReadFile(path); err == nil {
		var prev seedRecord
		if err := json.Unmarshal(b, &prev); err != nil {
			rep.op(false, "corrupt seed record %s: %v", path, err)
			return
		}
		compareRecord(rep, "earlier run of this seed", prev, cur)
		return
	}
	if b, err := json.MarshalIndent(cur, "", "  "); err == nil {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: recording seed:", err)
		}
	}
}

// compareRecord checks every counter and digest want names.
func compareRecord(rep *report, what string, want, got seedRecord) {
	var diffs []string
	for k, v := range want.Counters {
		if g, ok := got.Counters[k]; !ok || g != v {
			diffs = append(diffs, fmt.Sprintf("%s %v → %v", k, v, got.Counters[k]))
		}
	}
	for k, v := range want.Digests {
		if g, ok := got.Digests[k]; !ok || g != v {
			diffs = append(diffs, fmt.Sprintf("digest %s %.12s → %.12s", k, v, g))
		}
	}
	sort.Strings(diffs)
	rep.op(len(diffs) == 0, "drift from %s: %s", what, strings.Join(diffs, "; "))
}
