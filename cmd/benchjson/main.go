// Command benchjson measures the steady-state simulator hot path with the
// testing package's benchmark driver and appends the result to a JSON file,
// so performance across PRs can be compared from committed artifacts rather
// than scrollback.
//
// Example:
//
//	benchjson -label post-pr2 -o BENCH_PR2.json
//
// With -profile, a second (unbenchmarked) run executes with the cycle
// profiler attached and the per-phase breakdown rides along in the entry —
// the ns/op number always comes from the clean, unprofiled run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/schemes"
	"repro/internal/telemetry"
)

// Entry is one recorded measurement of the simulation-cycle hot path.
type Entry struct {
	Label        string  `json:"label"`
	Benchmark    string  `json:"benchmark"`
	Iterations   int     `json:"iterations"`
	NsPerOp      float64 `json:"ns_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	CyclesPerSec float64 `json:"cycles_per_sec"`
	Note         string  `json:"note,omitempty"`
	// Profile is the per-phase cycle-time breakdown from a separate
	// profiled run (-profile); omitted otherwise, keeping entries
	// byte-compatible with files written before the field existed.
	Profile *telemetry.Breakdown `json:"profile,omitempty"`
}

// benchConfig is the fixed measurement point: PR scheme at the given
// injection rate (0.01 is the historical default), pinned inside the warmup
// phase so every Step exercises the same steady-state path.
func benchConfig(rate float64, detector string) network.Config {
	cfg := network.DefaultConfig()
	cfg.Scheme = schemes.PR
	cfg.Pattern = protocol.PAT271
	cfg.Rate = rate
	cfg.Warmup, cfg.Measure, cfg.MaxDrain = 1<<30, 1, 0 // stay in warmup
	cfg.CWGInterval = 0
	cfg.Detector = detector
	return cfg
}

func main() {
	var (
		out      = flag.String("o", "BENCH_PR2.json", "JSON file to append the measurement to")
		label    = flag.String("label", "current", "label for this measurement")
		rate     = flag.Float64("rate", 0.01, "injection rate of the measurement point")
		runs     = flag.Int("runs", 1, "benchmark repetitions; the minimum ns/op is recorded (least scheduler-polluted)")
		dense    = flag.Bool("dense", false, "force dense stepping (every component stepped every cycle)")
		detector = flag.String("detector", "threshold", "recovery trigger to benchmark: threshold or probe (cwg needs scans, which the bench point disables)")
		profile  = flag.Bool("profile", false, "also run the cycle profiler and record the phase breakdown")
		version  = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(telemetry.VersionString("benchjson"))
		return
	}
	if *runs < 1 {
		fmt.Fprintf(os.Stderr, "benchjson: -runs must be >= 1, got %d\n", *runs)
		os.Exit(1)
	}
	if *rate < 0 || *rate > 1 {
		fmt.Fprintf(os.Stderr, "benchjson: -rate must be in [0,1], got %g\n", *rate)
		os.Exit(1)
	}
	if *detector != "threshold" && *detector != "probe" {
		fmt.Fprintf(os.Stderr, "benchjson: -detector must be threshold or probe, got %q (cwg needs CWG scans, which the bench point disables)\n", *detector)
		os.Exit(1)
	}

	var res testing.BenchmarkResult
	var nsPerOp float64
	for i := 0; i < *runs; i++ {
		r := testing.Benchmark(func(b *testing.B) {
			n, err := network.New(benchConfig(*rate, *detector))
			if err != nil {
				b.Fatal(err)
			}
			n.SetDense(*dense)
			n.RunCycles(2000) // reach steady occupancy
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.Step()
			}
		})
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		if i == 0 || ns < nsPerOp {
			res, nsPerOp = r, ns
		}
	}

	entry := Entry{
		Label:        *label,
		Benchmark:    "SimulationCycle",
		Iterations:   res.N,
		NsPerOp:      nsPerOp,
		BytesPerOp:   res.AllocedBytesPerOp(),
		AllocsPerOp:  res.AllocsPerOp(),
		CyclesPerSec: 1e9 / nsPerOp,
		Note:         note(*rate, *runs, *dense, *detector),
	}

	if *profile {
		b, err := profiledRun(*rate, *detector)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		entry.Profile = &b
	}

	if err := appendEntry(*out, entry); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Printf("%s: %.0f ns/op  %d B/op  %d allocs/op  %.0f cycles/sec -> %s\n",
		entry.Label, entry.NsPerOp, entry.BytesPerOp, entry.AllocsPerOp, entry.CyclesPerSec, *out)
	if entry.Profile != nil {
		fmt.Print(entry.Profile.Format())
	}
}

// note summarizes the measurement parameters for the JSON entry.
func note(rate float64, runs int, dense bool, detector string) string {
	s := fmt.Sprintf("rate=%g min-of-%d", rate, runs)
	if dense {
		s += " dense"
	}
	if detector != "threshold" {
		s += " detector=" + detector
	}
	return s
}

// profiledRun replays the benchmark workload with the profiler attached.
func profiledRun(rate float64, detector string) (telemetry.Breakdown, error) {
	n, err := network.New(benchConfig(rate, detector))
	if err != nil {
		return telemetry.Breakdown{}, err
	}
	n.RunCycles(2000)
	p := telemetry.NewCycleProfiler(1)
	n.AttachProfiler(p)
	n.RunCycles(20000)
	return p.Breakdown(), nil
}

// appendEntry reads the existing JSON array (if any), appends the entry, and
// rewrites the file atomically: the new content lands under a temporary name
// and is renamed over the target, so an interrupted run leaves either the
// old artifact or the new one — never a torn file that downstream tooling
// (perf_smoke.sh's min-of-N gate) would silently misread as fewer runs. A
// file that exists but does not parse fails loudly for the same reason:
// appending to a partial artifact would launder it back into a valid one.
func appendEntry(path string, e Entry) error {
	var entries []Entry
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &entries); err != nil {
			return fmt.Errorf("%s exists but is not a JSON entry array (partial artifact from an interrupted run?): %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	entries = append(entries, e)
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
