// Command perfbench is the repository's benchmark. It runs one named
// workload against the public entry points of the flit-level engine
// (network.New, fault.Attach, check.AttachDigest, experiments.RunNetwork) or
// of the serving stack (cluster.Coordinator in front of simsvc backends,
// served in-process on loopback listeners), checks that the outputs are
// correct, and prints its metrics.
//
//	perfbench --workload dense-pat271 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it times
// calls into each layer from the benchmark's own code and prints the
// per-layer metrics instead. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. README.md lists the
// workloads and what every metric means.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// metricDef names one metric. moves says, for a per-layer metric, which
// end-to-end metric on which workload the layer should move.
type metricDef struct {
	name, unit, better string
	bound              float64
	moves              string
}

// endToEnd are the metrics a user of the engine or the service sees. Every
// workload reports all of them; README.md gives each one's meaning per
// workload.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "ns_per_cycle", unit: "ns", better: "lower", bound: 0.25},
	{name: "run_ms_p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "run_ms_tail", unit: "ms", better: "lower", bound: 0.25},
	{name: "req_ms_p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "req_ms_tail", unit: "ms", better: "lower", bound: 0.25},
	{name: "goodput_rps", unit: "req/s", better: "higher", bound: 0.25},
	{name: "heap_peak_mb", unit: "MiB", better: "lower", bound: 0.25},
}

// perLayer are the traced pass's metrics. A layer a workload does not run
// reports 0 there.
var perLayer = []metricDef{
	{name: "network.build_ms", unit: "ms", better: "lower", moves: "run_ms_p50 @ sparse-pat271"},
	{name: "network.sweep_frac", unit: "frac", better: "lower", moves: "ns_per_cycle @ dense-pat271, sparse-pat271"},
	{name: "network.active_frac", unit: "frac", better: "lower", moves: "ns_per_cycle @ sparse-pat271"},
	{name: "network.sweep_step_ns", unit: "ns", better: "lower", moves: "ns_per_cycle @ dense-pat271, recovery-pat721"},
	{name: "network.fast_step_ns", unit: "ns", better: "lower", moves: "ns_per_cycle @ sparse-pat271"},
	{name: "network.occupied_flits", unit: "flits", better: "lower", moves: "ns_per_cycle @ dense-pat271"},
	{name: "phase.source_ns", unit: "ns", better: "lower", moves: "ns_per_cycle @ sparse-pat271"},
	{name: "phase.ni_ns", unit: "ns", better: "lower", moves: "ns_per_cycle @ dense-pat271"},
	{name: "phase.routing_ns", unit: "ns", better: "lower", moves: "ns_per_cycle @ dense-pat271"},
	{name: "phase.arbitration_ns", unit: "ns", better: "lower", moves: "ns_per_cycle @ dense-pat271"},
	{name: "phase.rescue_ns", unit: "ns", better: "lower", moves: "ns_per_cycle @ recovery-pat721"},
	{name: "phase.commit_ns", unit: "ns", better: "lower", moves: "ns_per_cycle @ dense-pat271"},
	{name: "phase.scan_ns", unit: "ns", better: "lower", moves: "ns_per_cycle @ recovery-pat721"},
	{name: "phase.obs_ns", unit: "ns", better: "lower", moves: "ns_per_cycle @ recovery-pat721"},
	{name: "phase.accounted_frac", unit: "frac", better: "higher", moves: "none: how far dense-only attribution is from the engine that runs"},
	{name: "deadlock.scan_us", unit: "us", better: "lower", moves: "ns_per_cycle @ recovery-pat721"},
	{name: "recovery.detects", unit: "count", better: "lower", moves: "ns_per_cycle @ recovery-pat721"},
	{name: "recovery.knots", unit: "count", better: "lower", moves: "ns_per_cycle @ recovery-pat721"},
	{name: "recovery.rescue_per_detect", unit: "frac", better: "higher", moves: "ns_per_cycle @ recovery-pat721"},
	{name: "probe.inflight", unit: "probes", better: "lower", moves: "ns_per_cycle @ recovery-pat721"},
	{name: "fault.outage_cycles", unit: "cycles", better: "lower", moves: "ns_per_cycle @ recovery-pat721"},
	{name: "load.lag_ms_tail", unit: "ms", better: "lower", moves: "req_ms_tail @ serve-zipf"},
	{name: "load.polls_per_req", unit: "count", better: "lower", moves: "req_ms_p50 @ serve-zipf"},
	{name: "cluster.self_us_p50", unit: "us", better: "lower", moves: "req_ms_p50 @ serve-zipf"},
	{name: "cluster.hedge_frac", unit: "frac", better: "lower", moves: "req_ms_tail @ serve-zipf"},
	{name: "cluster.hedge_win_frac", unit: "frac", better: "higher", moves: "req_ms_tail @ serve-zipf"},
	{name: "cluster.retry_frac", unit: "frac", better: "lower", moves: "req_ms_tail @ serve-zipf"},
	{name: "cluster.fill_hit_frac", unit: "frac", better: "higher", moves: "req_ms_tail @ serve-zipf"},
	{name: "simsvc.spec_hash_us", unit: "us", better: "lower", moves: "req_ms_p50 @ serve-zipf"},
	{name: "simsvc.submit_us_p50", unit: "us", better: "lower", moves: "req_ms_p50 @ serve-zipf"},
	{name: "simsvc.get_us_p50", unit: "us", better: "lower", moves: "req_ms_p50 @ serve-zipf"},
	{name: "simsvc.hit_frac", unit: "frac", better: "higher", moves: "req_ms_p50 @ serve-zipf"},
	{name: "simsvc.coalesce_frac", unit: "frac", better: "higher", moves: "req_ms_tail @ serve-zipf"},
	{name: "simsvc.queue_wait_ms_p50", unit: "ms", better: "lower", moves: "req_ms_tail @ serve-zipf"},
	{name: "simsvc.queue_wait_ms_tail", unit: "ms", better: "lower", moves: "req_ms_tail @ serve-zipf"},
	{name: "simsvc.execute_ms_p50", unit: "ms", better: "lower", moves: "req_ms_tail @ serve-zipf"},
	{name: "simsvc.encode_us_p50", unit: "us", better: "lower", moves: "req_ms_tail @ serve-zipf"},
	{name: "simsvc.busy_frac", unit: "frac", better: "lower", moves: "req_ms_tail @ serve-zipf"},
	{name: "trace.overhead_frac", unit: "frac", better: "lower", moves: "none: traced primary metric / untraced, per workload"},
}

// options are the parsed command line plus the recorded output fingerprints.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// short runs every pass for its minimum number of operations; the
	// benchmark's own tests use it.
	short    bool
	recorded map[string]recordedFP
	out      io.Writer
}

// result is what one workload pass reports.
type result struct {
	attempted, failed int
	// problems are failed output checks; any one makes the run incorrect.
	problems []string
	metrics  map[string]float64
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type workload struct {
	name, why string
	run       func(o options) (*result, error)
}

var workloads = []workload{
	{name: "dense-pat271", why: "8x8 torus PR/PAT271 at rate 0.01: every router, NI and commit phase is busy every cycle, so router-side changes show here",
		run: func(o options) (*result, error) { return runEngine(o, densePAT271) }},
	{name: "sparse-pat271", why: "the same point at rate 0.001: few routers and NIs are active in a cycle, so generation, the token walk and per-run network build weigh most",
		run: func(o options) (*result, error) { return runEngine(o, sparsePAT271) }},
	{name: "recovery-pat721", why: "PR/PAT721 past the knee with the probe detector and a token-loss plus router-freeze fault plan: detection, probes, rescue and fault injection do their work here",
		run: func(o options) (*result, error) { return runEngine(o, recoveryPAT721) }},
	{name: "serve-zipf", why: "open-loop Zipf requests through a coordinator and two simsvc backends: HTTP, spec hashing, the cache, ring routing, queueing and execution",
		run: runServe},
}

// recordedFP is one engine workload's output fingerprint at a recorded seed.
type recordedFP struct {
	Seed        uint64 `json:"seed"`
	Fingerprint string `json:"fingerprint"`
}

//go:embed fingerprints.json
var fingerprintsJSON []byte

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process exit, so tests can drive it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; every input is derived from it")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the measured phase in seconds")
	traceN := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	fs.BoolVar(&o.short, "short", false, "run each pass for its minimum number of operations (tests)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceN != 0 && *traceN != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	o.trace = *traceN == 1
	if o.seconds <= 0 || math.IsInf(o.seconds, 0) || math.IsNaN(o.seconds) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	if err := json.Unmarshal(fingerprintsJSON, &o.recorded); err != nil {
		fmt.Fprintln(stderr, "perfbench: fingerprints.json:", err)
		return 2
	}
	o.out = stdout
	return execute(o, stderr)
}

// execute runs the selected workload and prints its report. It returns the
// process exit code: 0 only for a correct run.
func execute(o options, stderr io.Writer) int {
	var w *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", o.workload, workloadNames())
		return 2
	}
	fmt.Fprintf(o.out, "workload %s seed %d seconds %g trace %v\n", w.name, o.seed, o.seconds, o.trace)
	fmt.Fprintf(o.out, "host: %s\n", hostFingerprint())
	res, err := w.run(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	printReport(o.out, defs, res)
	for _, p := range res.problems {
		fmt.Fprintf(stderr, "perfbench: %s: output check failed: %s\n", w.name, p)
	}
	if len(res.problems) > 0 {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printReport prints every metric of defs with its unit, then the one-line
// JSON result. fail_frac is printed but not part of the JSON metrics: it is
// 0 on every healthy run, and the JSON line carries it as failed/attempted.
func printReport(w io.Writer, defs []metricDef, res *result) {
	out := make(map[string]jsonMetric, len(defs))
	for _, d := range defs {
		v := res.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.name] = jsonMetric{Value: v, Unit: d.unit}
		line := fmt.Sprintf("  %-28s %14.6g %s", d.name, v, d.unit)
		if d.moves != "" {
			line += "   (moves " + d.moves + ")"
		}
		fmt.Fprintln(w, line)
	}
	for _, k := range infoKeys(res.metrics) {
		fmt.Fprintf(w, "  %-28s %14.6g\n", k, res.metrics[k])
	}
	fmt.Fprintf(w, "  %-28s %14.6g frac (%d of %d failed)\n", "fail_frac",
		ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted)
	// Marshal cannot fail: the values are finite and the types plain.
	line, _ := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{len(res.problems) == 0, res.attempted, res.failed, out})
	fmt.Fprintf(w, "%s\n", line)
}

// infoKeys lists, sorted, the informational values a pass recorded beside
// its metrics: sample counts and the percentiles tails sit at.
func infoKeys(m map[string]float64) []string {
	var out []string
	for k := range m {
		if strings.HasPrefix(k, "info.") {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
