package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/check"
	"repro/internal/deadlock"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/schemes"
	"repro/internal/telemetry"
)

const (
	// fingerprintRuns is how many leading runs of every pass feed the
	// workload's output fingerprint and its simulated statistics. Every
	// pass makes at least this many runs, in the same order, so the
	// fingerprint is independent of how fast the host is.
	fingerprintRuns = 2
	// engineSetupReps is how many times an engine pass sets up; setup_s is
	// the median. Set-up runs differ by seed, so a median of five.
	engineSetupReps = 5
	// scanSampleEvery spaces the traced pass's extra CWG scans.
	scanSampleEvery = 500
)

// Seed streams: each kind of input draws from its own stream.
const (
	streamRun = iota + 1
	streamSetup
	streamKeys
)

// enginePoint is one engine workload: the configuration of run i and, for
// faulted workloads, its fault plan.
type enginePoint struct {
	config func(seed uint64) network.Config
	plan   func(seed uint64) *fault.Plan
	// recovery marks a workload on which every run must detect and
	// rescue; a run that does not is not loading the layers it is for.
	recovery bool
}

// paperPoint is ROADMAP's engine point with the service's default phases:
// 8x8 torus, PR, PAT271, 4 VCs, threshold detector, CWG scan every 50.
func paperPoint(rate float64, seed uint64) network.Config {
	cfg := network.DefaultConfig()
	cfg.Scheme = schemes.PR
	cfg.Pattern = protocol.PAT271
	cfg.VCs = 4
	cfg.Rate = rate
	cfg.Warmup, cfg.Measure, cfg.MaxDrain = 2000, 8000, 10000
	cfg.CWGInterval = 50
	cfg.Detector = network.DetectorThreshold
	cfg.Seed = seed
	return cfg
}

var (
	densePAT271  = enginePoint{config: func(s uint64) network.Config { return paperPoint(0.01, s) }}
	sparsePAT271 = enginePoint{config: func(s uint64) network.Config { return paperPoint(0.001, s) }}

	// recoveryPAT721 runs past the knee with the probe detector and a
	// fault plan, so detection, probes, token rescue and fault injection
	// all do real work; some runs end at the drain cap.
	recoveryPAT721 = enginePoint{
		config: func(s uint64) network.Config {
			cfg := paperPoint(0.016, s)
			cfg.Pattern = protocol.PAT721
			cfg.QueueCap = 8
			cfg.Detector = network.DetectorProbe
			return cfg
		},
		plan: func(s uint64) *fault.Plan {
			const warmup, measure = 2000, 8000
			return &fault.Plan{Seed: s, Events: []fault.Event{
				{Kind: fault.TokenLoss, At: warmup + measure/4},
				{Kind: fault.RouterFreeze, At: warmup + measure/2, Router: int(s % 64), Cycles: 200},
			}}
		},
		recovery: true,
	}
)

// engineRun is one full run: build, attach, warmup + measure + drain.
type engineRun struct {
	err        error
	wall       time.Duration // build through the end of the run
	build      time.Duration // network.New + fault.Attach + check.AttachDigest
	cycles     int64
	digest     uint64
	deliveries int64
	drained    bool

	detects, rescues, knots, outage int64
}

// built is a network with its attachments, ready to run.
type built struct {
	n   *network.Network
	inj *fault.Injector
	dig *check.Digest
}

func (p enginePoint) build(seed uint64) (built, error) {
	n, err := network.New(p.config(seed))
	if err != nil {
		return built{}, err
	}
	var inj *fault.Injector
	if p.plan != nil {
		if inj, err = fault.Attach(n, p.plan(seed)); err != nil {
			return built{}, err
		}
	}
	return built{n: n, inj: inj, dig: check.AttachDigest(n)}, nil
}

// runOnce builds and runs the network for seed. instrument, when non-nil,
// is called after the build and before the run (the traced and profiled
// passes attach their hooks there).
func (p enginePoint) runOnce(seed uint64, instrument func(b built)) engineRun {
	start := time.Now()
	b, err := p.build(seed)
	r := engineRun{build: time.Since(start)}
	if err != nil {
		r.err = err
		r.wall = time.Since(start)
		return r
	}
	if instrument != nil {
		instrument(b)
	}
	r.err = experiments.RunNetwork(context.Background(), b.n)
	r.wall = time.Since(start)
	st := b.n.Stats
	r.cycles = b.n.Clock.Now()
	r.digest, r.deliveries = b.dig.Sum(), b.dig.Count()
	r.drained = b.n.Quiescent()
	r.detects, r.rescues, r.knots = st.DetectEvents, st.Rescues, st.CWGDeadlocks
	if b.inj != nil {
		r.outage = b.inj.Report().TokenOutageCycles
	}
	return r
}

// enginePass is one pass of back-to-back runs over seeds 0, 1, 2, ... of
// the run stream, until the budget is spent and at least fingerprintRuns
// runs are done.
type enginePass struct {
	runs    []engineRun
	elapsed time.Duration
	// heapMB is the peak heap in use during each run.
	heapMB dist
}

func (p enginePoint) pass(ws uint64, budget time.Duration, instrument func(i int, b built)) enginePass {
	var ps enginePass
	heap := startHeapSampler()
	start := time.Now()
	for i := 0; i < fingerprintRuns || time.Since(start) < budget; i++ {
		var hook func(b built)
		if instrument != nil {
			hook = func(b built) { instrument(i, b) }
		}
		ps.runs = append(ps.runs, p.runOnce(deriveSeed(ws, streamRun, uint64(i)), hook))
		ps.heapMB = append(ps.heapMB, heap.window())
	}
	ps.elapsed = time.Since(start)
	heap.Stop()
	return ps
}

// nsPerCycle is host wall time of every run divided by the cycles stepped.
func (ps enginePass) nsPerCycle() float64 {
	var wall time.Duration
	var cycles int64
	for _, r := range ps.runs {
		wall += r.wall
		cycles += r.cycles
	}
	return ratio(float64(wall.Nanoseconds()), float64(cycles))
}

// fingerprint folds the delivery digest, delivery count, cycles stepped and
// drained flag of the leading runs into one value. A run that ends at the
// drain cap is a deterministic outcome like any other.
func (ps enginePass) fingerprint() string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, r := range ps.runs[:fingerprintRuns] {
		if r.err != nil {
			put(^uint64(0))
			continue
		}
		put(r.digest)
		put(uint64(r.deliveries))
		put(uint64(r.cycles))
		if r.drained {
			put(1)
		} else {
			put(0)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// account adds a pass's runs to the result's counts and checks each run.
func (p enginePoint) account(res *result, ps enginePass) {
	for i, r := range ps.runs {
		res.attempted++
		if r.err != nil {
			res.failed++
			continue
		}
		if p.recovery && (r.detects == 0 || r.rescues == 0) {
			res.problem("run %d: %d detections, %d rescues; this workload must recover on every run", i, r.detects, r.rescues)
		}
	}
}

// checkFingerprints requires every pass to agree and, at a recorded seed,
// to equal the recorded value.
func checkFingerprints(o options, res *result, passes ...enginePass) {
	first := passes[0].fingerprint()
	fmt.Fprintf(o.out, "output fingerprint: %s (first %d runs)\n", first, fingerprintRuns)
	for i, ps := range passes[1:] {
		if fp := ps.fingerprint(); fp != first {
			res.problem("pass %d fingerprint %s differs from pass 0's %s", i+1, fp, first)
		}
	}
	if rec, ok := o.recorded[o.workload]; ok && rec.Seed == o.seed && rec.Fingerprint != first {
		res.problem("fingerprint %s at seed %d, recorded %s", first, o.seed, rec.Fingerprint)
	}
}

// setupTime sets up like a pass does before its first timed run — derive
// the inputs, then one untimed warm-up run so lazy initialisation, heap
// growth and caches settle — several times, and returns the median.
func (p enginePoint) setupTime(ws uint64, reps int) float64 {
	var d dist
	for j := 0; j < reps; j++ {
		start := time.Now()
		// A failing build fails the timed runs too, which report it.
		p.runOnce(deriveSeed(ws, streamSetup, uint64(j)), nil)
		d = append(d, time.Since(start).Seconds())
	}
	return d.median()
}

func runEngine(o options, p enginePoint) (*result, error) {
	res := &result{metrics: map[string]float64{}}
	budget := time.Duration(o.seconds * float64(time.Second))
	reps := engineSetupReps
	if o.short {
		budget, reps = 0, 1
	}
	if !o.trace {
		res.metrics["setup_s"] = p.setupTime(o.seed, reps)
		ps := p.pass(o.seed, budget, nil)
		p.account(res, ps)
		checkFingerprints(o, res, ps)
		var runMS dist
		ok := 0
		for _, r := range ps.runs {
			if r.err == nil {
				runMS = append(runMS, ms(r.wall))
				ok++
			}
		}
		tail, pct := runMS.tail()
		m := res.metrics
		m["ns_per_cycle"] = ps.nsPerCycle()
		m["run_ms_p50"], m["run_ms_tail"] = runMS.median(), tail
		// One client issuing runs back to back: a run is the request.
		m["req_ms_p50"], m["req_ms_tail"] = runMS.median(), tail
		m["goodput_rps"] = ratio(float64(ok), ps.elapsed.Seconds())
		// The median run's peak: the phase-wide maximum would be one GC
		// cycle's timing.
		m["heap_peak_mb"] = ps.heapMB.median()
		m["info.runs"], m["info.tail_pct"] = float64(len(runMS)), pct
		return res, nil
	}

	// Traced: an untraced pass for the reference ns/cycle, then the
	// step-timed pass, then the phase-profiled pass, each a third of the
	// budget. Set-up runs once, untimed.
	p.setupTime(o.seed, 1)
	plain := p.pass(o.seed, budget/3, nil)

	var tr stepTracer
	traced := p.pass(o.seed, budget/3, func(i int, b built) { tr.attach(i, b) })
	builds := dist{}
	for _, r := range traced.runs {
		builds = append(builds, ms(r.build))
	}

	var profs []*telemetry.CycleProfiler
	profiled := p.pass(o.seed, budget/3, func(i int, b built) {
		prof := telemetry.NewCycleProfiler(1)
		b.n.AttachProfiler(prof)
		profs = append(profs, prof)
	})
	phaseNs := map[string]float64{}
	var sampled, accounted float64
	for _, prof := range profs {
		bd := prof.Breakdown()
		sampled += float64(bd.SampledCycles)
		accounted += float64(bd.AccountedNs)
		for _, st := range bd.Phases {
			phaseNs[st.Phase] += float64(st.Ns)
		}
	}

	for _, ps := range []enginePass{plain, traced, profiled} {
		p.account(res, ps)
	}
	checkFingerprints(o, res, plain, traced, profiled)

	untraced := plain.nsPerCycle()
	m := res.metrics
	m["network.build_ms"] = builds.mean()
	m["network.sweep_frac"] = ratio(tr.lead.sweepN, tr.lead.sweepN+tr.lead.fastN)
	m["network.active_frac"] = ratio(tr.lead.active, tr.lead.cycles)
	m["network.sweep_step_ns"] = ratio(tr.all.sweepNs, tr.all.sweepN)
	m["network.fast_step_ns"] = ratio(tr.all.fastNs, tr.all.fastN)
	m["network.occupied_flits"] = ratio(tr.lead.occupied, tr.lead.cycles)
	names := map[telemetry.Phase]string{
		telemetry.PhaseSource: "source", telemetry.PhaseProtocol: "ni",
		telemetry.PhaseRouting: "routing", telemetry.PhaseArbitration: "arbitration",
		telemetry.PhaseRescue: "rescue", telemetry.PhaseCredit: "commit",
		telemetry.PhaseDeadlock: "scan", telemetry.PhaseObs: "obs",
	}
	for ph, name := range names {
		m["phase."+name+"_ns"] = ratio(phaseNs[ph.String()], sampled)
	}
	m["phase.accounted_frac"] = ratio(ratio(accounted, sampled), untraced)
	m["deadlock.scan_us"] = ratio(tr.all.scanNs/1e3, tr.all.scans)
	lead := traced.runs[:fingerprintRuns]
	var detects, rescues, knots, outage float64
	for _, r := range lead {
		detects += float64(r.detects)
		rescues += float64(r.rescues)
		knots += float64(r.knots)
		outage += float64(r.outage)
	}
	runs := float64(len(lead))
	m["recovery.detects"] = detects / runs
	m["recovery.knots"] = knots / runs
	m["recovery.rescue_per_detect"] = ratio(rescues, detects)
	m["probe.inflight"] = ratio(tr.lead.inflight, tr.lead.cycles)
	m["fault.outage_cycles"] = outage / runs
	m["trace.overhead_frac"] = ratio(traced.nsPerCycle(), untraced)
	m["info.untraced_ns_per_cycle"] = untraced
	return res, nil
}

// stepCounts are the traced pass's per-cycle tallies.
type stepCounts struct {
	sweepN, fastN, sweepNs, fastNs float64
	active, occupied, inflight     float64
	cycles                         float64
	scans, scanNs                  float64
}

// add tallies one cycle that began with the given active share and took d
// ns to step.
func (c *stepCounts) add(n *network.Network, active, d float64) {
	c.active += active
	if active > 0 {
		c.sweepN++
		c.sweepNs += d
	} else {
		c.fastN++
		c.fastNs += d
	}
	c.occupied += float64(n.OccupiedFlits())
	if n.Probe != nil {
		c.inflight += float64(n.Probe.InFlight())
	}
	c.cycles++
}

// stepTracer times every Step of a run from the network's end-of-cycle
// hook, classifying each by whether any router or NI was active when it
// began, and scans a separate CWG detector on sampled cycles. Tallies of
// the leading (fingerprint) runs are kept apart: they are simulated
// statistics and must not depend on how many runs the budget allowed.
type stepTracer struct {
	all, lead stepCounts
}

// activeShare is the share of routers and NIs in the active sweep set.
func activeShare(n *network.Network) float64 {
	k := 0
	for id := range n.Routers {
		if n.RouterActive(id) {
			k++
		}
	}
	for ep := range n.NIs {
		if n.NIActive(ep) {
			k++
		}
	}
	return float64(k) / float64(len(n.Routers)+len(n.NIs))
}

// attach hooks run i's network. The activity check, the extra scan and the
// clock reads happen between two step timings, outside both.
func (t *stepTracer) attach(i int, b built) {
	n := b.n
	det := deadlock.NewDetector(n)
	active := activeShare(n)
	last := time.Now()
	prev := n.OnCycle
	n.OnCycle = func(now int64) {
		if prev != nil {
			prev(now)
		}
		d := float64(time.Since(last).Nanoseconds())
		t.all.add(n, active, d)
		if i < fingerprintRuns {
			t.lead.add(n, active, d)
		}
		if now%scanSampleEvery == 0 {
			s := time.Now()
			det.ScanAt(now)
			t.all.scanNs += float64(time.Since(s).Nanoseconds())
			t.all.scans++
		}
		active = activeShare(n)
		last = time.Now()
	}
}
